package workload

import (
	"fmt"
	"math/rand"
)

// Builder assembles per-thread op streams with correctly-shaped static
// structure: sync-point static IDs and memory-op PCs are fixed per call
// site, so dynamic instances of the same epoch share identity — the
// property all the predictors key on.
type Builder struct {
	name    string
	n       int
	threads [][]Op
	rng     *rand.Rand

	nextBarrier uint64
	nextLock    int

	// reserved holds each thread's op count when reserve sized the
	// streams up front; nil for an append-grown builder.
	reserved []int

	// Per-thread epoch context for PC synthesis.
	epochStatic []uint64
	helperIdx   []int
}

// NewBuilder starts a program with n threads and deterministic build-time
// randomness.
func NewBuilder(name string, n int, seed int64) *Builder {
	return &Builder{
		name:        name,
		n:           n,
		threads:     make([][]Op, n),
		rng:         rand.New(rand.NewSource(seed)),
		epochStatic: make([]uint64, n),
		helperIdx:   make([]int, n),
	}
}

// N returns the thread count.
func (b *Builder) N() int { return b.n }

// Rng exposes the build-time random source (profiles use it for
// data-dependent but reproducible choices).
func (b *Builder) Rng() *rand.Rand { return b.rng }

// Barriers allocates k static barrier IDs (one per call site in the
// modeled source program). Call once, outside iteration loops.
func (b *Builder) Barriers(k int) []uint64 {
	ids := make([]uint64, k)
	for i := range ids {
		b.nextBarrier++
		ids[i] = b.nextBarrier
	}
	return ids
}

// Locks allocates k static locks.
func (b *Builder) Locks(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = b.nextLock
		b.nextLock++
	}
	return ids
}

// Bar appends the barrier to every thread and opens a new epoch context.
func (b *Builder) Bar(id uint64) {
	for tid := 0; tid < b.n; tid++ {
		b.threads[tid] = append(b.threads[tid], Op{Kind: OpBarrier, Static: id, Addr: BarrierAddr(id)})
		b.epochStatic[tid] = id
		b.helperIdx[tid] = 0
	}
}

// ForAll runs body for every thread.
func (b *Builder) ForAll(body func(t *T)) {
	for tid := 0; tid < b.n; tid++ {
		body(&T{b: b, tid: tid})
	}
}

// Thread returns the stream builder for one thread. Emitting through
// Thread(tid) in ascending tid order is equivalent to one ForAll pass —
// the spec interpreter uses it to drive per-thread emission.
func (b *Builder) Thread(tid int) *T { return &T{b: b, tid: tid} }

// reserve sizes every thread's stream before anything is emitted: thread
// tid gets room for counts[tid] ops and its OpEnd, all threads in one
// exact-sized array, each a subslice whose capacity ends where its
// neighbour begins. Emission then appends in place, and finishReserved
// closes the streams without a copy.
func (b *Builder) reserve(counts []int) {
	total := 0
	for _, c := range counts {
		total += c + 1 // one OpEnd per thread
	}
	all := make([]Op, total)
	off := 0
	for tid, c := range counts {
		end := off + c + 1
		b.threads[tid] = all[off:off:end]
		off = end
	}
	b.reserved = counts
}

// finishReserved appends program termination in place to streams sized by
// reserve. A thread that emitted other than its reserved count is an
// error: a short one would leave a gap before its neighbour, and a long
// one has already left the shared array.
func (b *Builder) finishReserved(staticBarriers, staticCS int) (*Program, error) {
	for tid, ops := range b.threads {
		if len(ops) != b.reserved[tid] {
			return nil, fmt.Errorf("workload: %s thread %d: emitted %d ops, reserved %d",
				b.name, tid, len(ops), b.reserved[tid])
		}
		b.threads[tid] = append(ops, Op{Kind: OpEnd})
	}
	return &Program{Name: b.name, Threads: b.threads,
		StaticBarriers: staticBarriers, StaticCritSections: staticCS}, nil
}

// Finish appends program termination and returns the program. Every
// thread's stream is copied into one exact-sized array, so the program
// keeps no growth slack; each thread is a subslice with cap == len, so
// appending to one never writes into its neighbour.
func (b *Builder) Finish(staticBarriers, staticCS int) *Program {
	total := b.n // one OpEnd per thread
	for _, ops := range b.threads {
		total += len(ops)
	}
	all := make([]Op, total)
	threads := make([][]Op, b.n)
	off := 0
	for tid, ops := range b.threads {
		end := off + copy(all[off:], ops)
		all[end] = Op{Kind: OpEnd}
		end++
		threads[tid] = all[off:end:end]
		off = end
	}
	return &Program{Name: b.name, Threads: threads,
		StaticBarriers: staticBarriers, StaticCritSections: staticCS}
}

// T builds one thread's stream. Each pattern-helper call site corresponds
// to one static instruction: every access it emits shares one PC derived
// from the enclosing epoch and the helper's ordinal position in the epoch
// body, which is identical across dynamic instances.
type T struct {
	b   *Builder
	tid int
}

// Tid returns the thread index.
func (t *T) Tid() int { return t.tid }

func (t *T) pc() uint64 {
	b := t.b
	pc := 0x400000 + b.epochStatic[t.tid]*64 + uint64(b.helperIdx[t.tid])
	b.helperIdx[t.tid]++
	return pc
}

func (t *T) emit(op Op) { t.b.threads[t.tid] = append(t.b.threads[t.tid], op) }

// Compute burns n cycles of non-memory work.
func (t *T) Compute(n int) {
	if n > 0 {
		t.emit(Op{Kind: OpCompute, N: uint32(n)})
	}
}

// readLoop emits n reads cycling over a line-address generator — one
// static load executed n times.
func (t *T) readLoop(n int, addr func(i int) Op) {
	pc := t.pc()
	for i := 0; i < n; i++ {
		op := addr(i)
		op.Static = pc
		t.emit(op)
	}
}

// ReadSlice reads n times over owner's slice of a shared region.
func (t *T) ReadSlice(region, owner, sliceLines, n int) {
	t.readLoop(n, func(i int) Op {
		return Op{Kind: OpRead, Addr: SliceAddr(region, owner, sliceLines, i)}
	})
}

// WriteSlice writes n times over owner's slice of a shared region.
func (t *T) WriteSlice(region, owner, sliceLines, n int) {
	t.readLoop(n, func(i int) Op {
		return Op{Kind: OpWrite, Addr: SliceAddr(region, owner, sliceLines, i)}
	})
}

// ReadLines reads n times cycling over `lines` lines of a shared region
// starting at line `start`.
func (t *T) ReadLines(region, start, lines, n int) {
	t.readLoop(n, func(i int) Op {
		return Op{Kind: OpRead, Addr: SharedAddr(region, start+i%lines)}
	})
}

// Produce writes n times over the partition of this thread's slice that is
// destined for `consumer`: lines [consumer*partLines, (consumer+1)*partLines)
// of the producer's slice. Together with Consume this forms partitioned
// producer-consumer exchange: every line has exactly one producer and one
// consumer, so the consumer's miss is always supplied by the producer's
// cache (no forward-chaining through other readers), giving the stable,
// small hot communication sets of paper §3.3.
func (t *T) Produce(region, consumer, partLines, n int) {
	nt := t.b.n
	t.readLoop(n, func(i int) Op {
		return Op{Kind: OpWrite, Addr: SliceAddr(region, t.tid, nt*partLines, consumer*partLines+i%partLines)}
	})
}

// Consume reads n times over this thread's partition of `producer`'s slice.
func (t *T) Consume(region, producer, partLines, n int) {
	nt := t.b.n
	t.readLoop(n, func(i int) Op {
		return Op{Kind: OpRead, Addr: SliceAddr(region, producer, nt*partLines, t.tid*partLines+i%partLines)}
	})
}

// Private issues n accesses (3:1 read:write) cycling over a private
// working set of wsLines lines. Working sets larger than the L2 miss
// off-chip: this is the knob controlling the non-communicating miss ratio
// (paper Figure 1).
func (t *T) Private(n, wsLines int, cursor *int) {
	if wsLines <= 0 || n <= 0 {
		return
	}
	pcR := t.pc()
	pcW := t.pc()
	for i := 0; i < n; i++ {
		*cursor = (*cursor + 17) % wsLines // stride-17 walk: spreads over sets
		op := Op{Kind: OpRead, Addr: PrivateAddr(t.tid, *cursor), Static: pcR}
		if i%4 == 3 {
			op.Kind = OpWrite
			op.Static = pcW
		}
		t.emit(op)
	}
}

// CS emits one critical section: lock, n accesses (1:1 read:write) over
// the first `lines` lines of the lock's protected region, unlock. The
// protected region is derived from the lock ID, so every thread contends
// over the same data — producing the migratory sharing of §3.4.
func (t *T) CS(lockID, region, lines, n int) {
	t.emit(Op{Kind: OpLock, Static: uint64(LockAddr(lockID)), Addr: LockAddr(lockID)})
	// The critical-section epoch body.
	prevEpoch := t.b.epochStatic[t.tid]
	prevIdx := t.b.helperIdx[t.tid]
	t.b.epochStatic[t.tid] = uint64(lockID)*2 + 1000
	t.b.helperIdx[t.tid] = 0
	pcR, pcW := t.pc(), t.pc()
	for i := 0; i < n; i++ {
		op := Op{Kind: OpRead, Addr: SharedAddr(region, lockID*64+i%lines), Static: pcR}
		if i%2 == 1 {
			op.Kind = OpWrite
			op.Static = pcW
		}
		t.emit(op)
	}
	t.emit(Op{Kind: OpUnlock, Static: uint64(LockAddr(lockID)) + 1, Addr: LockAddr(lockID)})
	t.b.epochStatic[t.tid] = prevEpoch
	t.b.helperIdx[t.tid] = prevIdx
}
