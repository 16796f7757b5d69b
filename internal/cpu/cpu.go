// Package cpu models the processor cores: 2-issue in-order engines (paper
// Table 4) that execute workload op streams against a coherent memory port
// and a synchronization runtime, exposing each synchronization point to the
// hardware predictor as they cross it (paper §4.1).
package cpu

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/detutil"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/workload"
)

// MemPort is the per-core view of the memory system (the tile's cache
// controller).
type MemPort interface {
	Access(pc uint64, addr arch.Addr, write bool, done func())
	OnSync(kind predictor.SyncKind, staticID uint64)
}

// FastPort extends MemPort with the fast-mode hit path (DESIGN.md §15):
// AccessFast resolves cache hits synchronously, returning the access latency
// for the core to accumulate on its own virtual clock; ok=false means the
// access misses and must be re-issued through Access.
type FastPort interface {
	MemPort
	AccessFast(pc uint64, addr arch.Addr, write bool) (lat event.Time, ok bool)
}

// SyncRuntime provides barrier and lock coordination between cores.
type SyncRuntime interface {
	Barrier(core int, id uint64, resume func())
	Lock(core int, id uint64, resume func())
	Unlock(core int, id uint64)
}

// IssueWidth is every core's issue width (paper Table 4: 2-issue cores). A
// compute op of N instructions takes N/IssueWidth cycles, at least one.
const IssueWidth = 2

// Stats counts core activity.
type Stats struct {
	MemOps     uint64
	ComputeCyc uint64
	Barriers   uint64
	Locks      uint64
	FinishTime event.Time
}

// Core executes one thread's op stream.
type Core struct {
	ID int

	sim  *event.Sim
	port MemPort
	rt   SyncRuntime
	ops  []workload.Op
	ip   int

	finished bool
	onFinish func()
	stats    Stats

	// stepFn is the core's step bound once at construction: the execution
	// loop passes it as the completion callback of every memory access and
	// compute delay, instead of materializing a fresh method value (one
	// heap allocation) per op. EnableFast rebinds it to fastStep, so misses
	// and sync resumptions re-enter the batching loop.
	stepFn func()

	// syncOp is the barrier, lock or unlock op the core is blocked on; the
	// continuations below read it when the runtime or the memory system
	// resumes the core. They are bound once at construction, like stepFn,
	// so a sync op allocates no closure.
	syncOp                      workload.Op
	barrierFn, lockFn, unlockFn func()

	// fastPort is the port's fast hit path; non-nil only after EnableFast.
	fastPort FastPort
}

// New builds a core over its op stream. onFinish fires once at OpEnd.
func New(id int, sim *event.Sim, port MemPort, rt SyncRuntime, ops []workload.Op, onFinish func()) *Core {
	c := &Core{ID: id, sim: sim, port: port, rt: rt, ops: ops, onFinish: onFinish}
	c.stepFn = c.step
	c.barrierFn, c.lockFn, c.unlockFn = c.barrierReleased, c.lockAcquired, c.unlockDone
	return c
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// EnableFast switches the core to the fast-mode execution loop: runs of
// compute ops and cache hits are batched into a single event on the core's
// virtual clock instead of one event per op. The port must implement
// FastPort.
func (c *Core) EnableFast() {
	c.fastPort = c.port.(FastPort)
	c.stepFn = c.fastStep
}

// Start begins execution at the current simulator time.
func (c *Core) Start() { c.stepFn() }

// coreStep is the pre-bound form of (*Core).step for event.AfterFn: the
// compute-op path schedules it with the core itself as argument,
// allocation-free.
//
//spcoh:noalloc
func coreStep(a any) { a.(*Core).step() }

// step executes the next op; every path reschedules asynchronously via the
// event queue or a completion callback, so there is no unbounded recursion.
func (c *Core) step() {
	if c.ip >= len(c.ops) {
		c.finish()
		return
	}
	op := c.ops[c.ip]
	c.ip++
	switch op.Kind() {
	case workload.OpCompute:
		n := op.N()
		c.stats.ComputeCyc += n
		d := event.Time(int(n) / IssueWidth)
		if d < 1 {
			d = 1
		}
		c.sim.AfterFn(d, coreStep, c)

	case workload.OpRead, workload.OpWrite:
		c.stats.MemOps++
		c.port.Access(op.Static(), op.Addr(), op.Kind() == workload.OpWrite, c.stepFn)

	case workload.OpBarrier:
		c.stats.Barriers++
		// Block until released; crossing the barrier is the sync-point
		// exposed to the predictor. Barrier arrival traffic itself is not
		// modeled: with the scaled-down epochs of the synthetic workloads
		// a single arrival write would be a far larger fraction of an
		// epoch's communication than in the paper's full-size runs (see
		// DESIGN.md §1).
		c.syncOp = op
		c.rt.Barrier(c.ID, op.Static(), c.barrierFn)

	case workload.OpLock:
		c.stats.Locks++
		c.syncOp = op
		// The runtime keys locks by their line address (op.Addr()); the
		// sync-point static ID (op.Static(), the op's second word) is a
		// separate notion exposed to predictors.
		c.rt.Lock(c.ID, uint64(op.Addr()), c.lockFn)

	case workload.OpUnlock:
		c.syncOp = op
		c.port.Access(0, op.Addr(), true, c.unlockFn)

	case workload.OpEnd:
		c.finish()

	default:
		panic(fmt.Sprintf("cpu: core %d: bad op kind %v", c.ID, op.Kind()))
	}
}

// barrierReleased resumes the core past a barrier: crossing it is the
// sync-point exposed to the predictor.
func (c *Core) barrierReleased() {
	c.port.OnSync(predictor.SyncBarrier, c.syncOp.Static())
	c.stepFn()
}

// lockAcquired exposes the sync-point first (the SP-table update happens
// "just after the lock is acquired", §4.3), then performs the atomic RMW on
// the lock line — a migratory, communicating miss coming from the previous
// holder.
func (c *Core) lockAcquired() {
	c.port.OnSync(predictor.SyncLock, c.syncOp.Static())
	c.port.Access(0, c.syncOp.Addr(), true, c.stepFn)
}

// unlockDone releases the lock once the release write completes.
func (c *Core) unlockDone() {
	op := c.syncOp
	c.port.OnSync(predictor.SyncUnlock, op.Static())
	c.rt.Unlock(c.ID, uint64(op.Addr()))
	c.stepFn()
}

// coreFastStep is the pre-bound form of (*Core).fastStep for event.AtFn.
//
//spcoh:noalloc
func coreFastStep(a any) { a.(*Core).fastStep() }

// fastStep is the fast-mode execution loop: it walks consecutive compute
// ops and cache hits accumulating their latencies on a virtual clock (vt),
// then schedules a single engine event at the batch boundary. Misses, sync
// ops and OpEnd break the batch — they are issued through the detailed path
// at their exact virtual start time, so transaction ordering matches the
// op-level interleaving of the detailed model.
func (c *Core) fastStep() {
	now := c.sim.Now()
	vt := now
	for {
		if c.ip >= len(c.ops) {
			if vt > now {
				c.sim.AtFn(vt, coreFastStep, c)
				return
			}
			c.finish()
			return
		}
		op := c.ops[c.ip]
		switch op.Kind() {
		case workload.OpCompute:
			c.ip++
			n := op.N()
			c.stats.ComputeCyc += n
			d := event.Time(int(n) / IssueWidth)
			if d < 1 {
				d = 1
			}
			vt += d

		case workload.OpRead, workload.OpWrite:
			lat, ok := c.fastPort.AccessFast(op.Static(), op.Addr(), op.Kind() == workload.OpWrite)
			if ok {
				c.ip++
				c.stats.MemOps++
				vt += lat
				continue
			}
			// Miss: re-run the access at its virtual start time, so the
			// coherence transaction issues exactly where the detailed
			// model would issue it. The probe left the cache contents,
			// recency and hit counters unchanged.
			if vt > now {
				c.sim.AtFn(vt, coreFastStep, c)
				return
			}
			c.ip++
			c.stats.MemOps++
			c.port.Access(op.Static(), op.Addr(), op.Kind() == workload.OpWrite, c.stepFn)
			return

		default:
			// Sync ops and OpEnd: delegate to the detailed step at the
			// batch's virtual time. Their resume callbacks re-enter this
			// loop via stepFn.
			if vt > now {
				c.sim.AtFn(vt, coreFastStep, c)
				return
			}
			c.step()
			return
		}
	}
}

func (c *Core) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.stats.FinishTime = c.sim.Now()
	if c.onFinish != nil {
		c.onFinish()
	}
}

// Coordinator is the default SyncRuntime: sense-reversing barriers over all
// cores and FIFO locks. A barrier's waiter slice and a lock's queue keep
// their capacity across rounds, so a warmed barrier or lock hand-off
// allocates nothing.
type Coordinator struct {
	sim *event.Sim
	n   int

	barWaiting map[uint64][]func() // empty between rounds
	locks      map[uint64]*lockState
}

type lockState struct {
	held  bool
	queue []func()
}

// NewCoordinator builds a runtime for n cores.
func NewCoordinator(sim *event.Sim, n int) *Coordinator {
	return &Coordinator{sim: sim, n: n, barWaiting: make(map[uint64][]func()), locks: make(map[uint64]*lockState)}
}

// Barrier implements SyncRuntime. All n cores must arrive; the last arrival
// releases everyone on the next cycle.
func (co *Coordinator) Barrier(_ int, id uint64, resume func()) {
	w := append(co.barWaiting[id], resume)
	if len(w) == co.n {
		for _, r := range w {
			co.sim.After(1, r)
		}
		w = w[:0]
	}
	co.barWaiting[id] = w
}

// Lock implements SyncRuntime (FIFO grant order).
func (co *Coordinator) Lock(_ int, id uint64, resume func()) {
	st, ok := co.locks[id]
	if !ok {
		st = &lockState{}
		co.locks[id] = st
	}
	if !st.held {
		st.held = true
		co.sim.After(1, resume)
		return
	}
	st.queue = append(st.queue, resume)
}

// Unlock implements SyncRuntime.
func (co *Coordinator) Unlock(_ int, id uint64) {
	st := co.locks[id]
	if st == nil || !st.held {
		panic("cpu: unlock of a lock not held")
	}
	if len(st.queue) > 0 {
		next := st.queue[0]
		n := copy(st.queue, st.queue[1:])
		st.queue = st.queue[:n]
		co.sim.After(1, next)
		return
	}
	st.held = false
}

// Pending reports unreleased barriers and queued lock waiters (deadlock
// diagnosis).
func (co *Coordinator) Pending() string {
	s := ""
	for _, id := range detutil.SortedKeys(co.barWaiting) {
		if n := len(co.barWaiting[id]); n > 0 {
			s += fmt.Sprintf("barrier %d: %d/%d arrived; ", id, n, co.n)
		}
	}
	for _, id := range detutil.SortedKeys(co.locks) {
		if st := co.locks[id]; len(st.queue) > 0 {
			s += fmt.Sprintf("lock %d: %d queued; ", id, len(st.queue))
		}
	}
	return s
}
