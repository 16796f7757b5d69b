package workload

import (
	"fmt"
	"math/rand"

	"spcoh/internal/scenario"
)

// FromSpec interprets a scenario spec into an op-stream program. The walk
// drives the same Builder the hand-coded profiles used, in the same order
// — per barrier site, threads ascending, steps in listing order — so a
// spec transcribed from a builder function reproduces its op stream byte
// for byte: PCs, sync IDs and build-time rng draws all land identically.
//
// The spec is walked twice. The first walk only counts each thread's ops,
// drawing from its own source seeded like the builder's, so its rng draws
// match the second walk's; the builder then reserves every stream in one
// exact-sized array, and the second walk fills it in place.
func FromSpec(sp *scenario.Spec, threads int, scale float64, seed int64) (*Program, error) {
	c, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	cm := &countMachine{counts: make([]int, threads)}
	if err := c.Emit(threads, scale, rand.New(rand.NewSource(seed)), cm); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	b := NewBuilder(sp.Name, threads, seed)
	b.reserve(cm.counts)
	m := &specMachine{
		b:       b,
		bars:    b.Barriers(sp.Barriers),
		locks:   b.Locks(sp.Locks),
		cursors: make([]int, threads),
	}
	if err := c.Emit(threads, scale, b.Rng(), m); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return b.finishReserved(sp.Barriers, sp.Locks)
}

// countMachine counts the ops each Builder helper emits for an action,
// without emitting them.
type countMachine struct {
	counts []int
}

func (m *countMachine) Barrier(int) {
	for tid := range m.counts {
		m.counts[tid]++
	}
}

func (m *countMachine) Produce(tid, _, _, _, count int) { m.counts[tid] += count }

func (m *countMachine) Consume(tid, _, _, _, count int) { m.counts[tid] += count }

// CS brackets its accesses with a lock and an unlock.
func (m *countMachine) CS(tid, _, _, _, count int) { m.counts[tid] += count + 2 }

func (m *countMachine) Private(tid, count, ws int) {
	if ws > 0 && count > 0 {
		m.counts[tid] += count
	}
}

func (m *countMachine) Compute(tid, cycles int) {
	if cycles > 0 {
		m.counts[tid]++
	}
}

// specMachine adapts the scenario walk onto the op-stream Builder. Private
// cursors persist across epochs, like the cur slice the profile closures
// hoisted out of their iteration loops.
type specMachine struct {
	b       *Builder
	bars    []uint64
	locks   []int
	cursors []int
}

func (m *specMachine) Barrier(site int) { m.b.Bar(m.bars[site]) }

func (m *specMachine) Produce(tid, region, to, lines, count int) {
	m.b.Thread(tid).Produce(region, to, lines, count)
}

func (m *specMachine) Consume(tid, region, from, lines, count int) {
	m.b.Thread(tid).Consume(region, from, lines, count)
}

func (m *specMachine) CS(tid, lock, region, lines, count int) {
	m.b.Thread(tid).CS(m.locks[lock], region, lines, count)
}

func (m *specMachine) Private(tid, count, ws int) {
	m.b.Thread(tid).Private(count, ws, &m.cursors[tid])
}

func (m *specMachine) Compute(tid, cycles int) {
	m.b.Thread(tid).Compute(cycles)
}
