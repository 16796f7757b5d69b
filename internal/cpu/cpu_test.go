package cpu

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/workload"
)

// memStub is a MemPort with fixed access latency that records activity.
type memStub struct {
	sim      *event.Sim
	lat      event.Time
	accesses []arch.Addr
	writes   int
	syncs    []predictor.SyncKind
}

func (m *memStub) Access(pc uint64, addr arch.Addr, write bool, done func()) {
	m.accesses = append(m.accesses, addr)
	if write {
		m.writes++
	}
	m.sim.After(m.lat, done)
}

func (m *memStub) OnSync(kind predictor.SyncKind, staticID uint64) {
	m.syncs = append(m.syncs, kind)
}

func runOps(t *testing.T, nCores int, opsFor func(tid int) []workload.Op) ([]*Core, []*memStub, *event.Sim) {
	t.Helper()
	sim := event.New()
	co := NewCoordinator(sim, nCores)
	cores := make([]*Core, nCores)
	stubs := make([]*memStub, nCores)
	finished := 0
	for i := 0; i < nCores; i++ {
		stubs[i] = &memStub{sim: sim, lat: 10}
		cores[i] = New(i, sim, stubs[i], co, opsFor(i), func() { finished++ })
		cores[i].Start()
	}
	sim.Run()
	if finished != nCores {
		t.Fatalf("%d/%d cores finished: %s", finished, nCores, co.Pending())
	}
	return cores, stubs, sim
}

func TestComputeTiming(t *testing.T) {
	_, _, sim := runOps(t, 1, func(int) []workload.Op {
		return []workload.Op{workload.ComputeOp(100), workload.EndOp()}
	})
	// 2-issue: 100 cycles of work retire in 50.
	if sim.Now() != 50 {
		t.Fatalf("compute finished at %d, want 50", sim.Now())
	}
}

// TestComputeBeyond32Bits builds a compute op of more than 2^32 cycles
// through the builder, which keeps the full count, and replays it: the core
// counts every cycle.
func TestComputeBeyond32Bits(t *testing.T) {
	const n = 1<<32 + 10
	b := workload.NewBuilder("long", 1, 1)
	b.Thread(0).Compute(n)
	ops := b.Finish(0, 0).Threads[0]
	if ops[0].Kind() != workload.OpCompute || ops[0].N() != n {
		t.Fatalf("built %v, want compute n=%d", ops[0], uint64(n))
	}
	cores, _, sim := runOps(t, 1, func(int) []workload.Op { return ops })
	if got := cores[0].Stats().ComputeCyc; got != n {
		t.Fatalf("ComputeCyc = %d, want %d", got, uint64(n))
	}
	if sim.Now() != n/IssueWidth {
		t.Fatalf("compute finished at %d, want %d", sim.Now(), n/IssueWidth)
	}
}

func TestMemoryOpsInOrder(t *testing.T) {
	cores, stubs, sim := runOps(t, 1, func(int) []workload.Op {
		return []workload.Op{
			workload.MemOp(workload.OpRead, 0x100, 0),
			workload.MemOp(workload.OpWrite, 0x200, 0),
			workload.MemOp(workload.OpRead, 0x300, 0),
			workload.EndOp(),
		}
	})
	if len(stubs[0].accesses) != 3 || stubs[0].writes != 1 {
		t.Fatalf("accesses = %v writes=%d", stubs[0].accesses, stubs[0].writes)
	}
	// Serial: 3 x 10 cycles.
	if sim.Now() != 30 {
		t.Fatalf("finished at %d, want 30", sim.Now())
	}
	if cores[0].Stats().MemOps != 3 {
		t.Fatalf("memops = %d", cores[0].Stats().MemOps)
	}
}

func TestBarrierBlocksUntilAllArrive(t *testing.T) {
	// Core 1 computes for 1000 cycles before the barrier; core 0 must wait.
	cores, stubs, _ := runOps(t, 2, func(tid int) []workload.Op {
		var ops []workload.Op
		if tid == 1 {
			ops = append(ops, workload.ComputeOp(2000))
		}
		ops = append(ops,
			workload.SyncOp(workload.OpBarrier, 0, 7),
			workload.EndOp())
		return ops
	})
	if cores[0].Stats().FinishTime < 1000 {
		t.Fatalf("core 0 finished at %d, should wait for core 1", cores[0].Stats().FinishTime)
	}
	for i := range stubs {
		if len(stubs[i].syncs) != 1 || stubs[i].syncs[0] != predictor.SyncBarrier {
			t.Fatalf("core %d syncs = %v", i, stubs[i].syncs)
		}
	}
}

func TestLockMutualExclusionFIFO(t *testing.T) {
	// All cores contend for one lock; the lock body writes the lock line.
	cores, stubs, _ := runOps(t, 4, func(tid int) []workload.Op {
		return []workload.Op{
			workload.SyncOp(workload.OpLock, arch.Addr(0xAA<<6), 0xAA),
			workload.ComputeOp(100),
			workload.SyncOp(workload.OpUnlock, arch.Addr(0xAA<<6), 0xAB),
			workload.EndOp(),
		}
	})
	// Finish times must be strictly staggered (serialized critical sections).
	times := make([]event.Time, 4)
	for i, c := range cores {
		times[i] = c.Stats().FinishTime
	}
	distinct := map[event.Time]bool{}
	for _, ft := range times {
		distinct[ft] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("critical sections not serialized: %v", times)
	}
	// Sync exposure order per core: lock then unlock.
	for i := range stubs {
		if len(stubs[i].syncs) != 2 || stubs[i].syncs[0] != predictor.SyncLock ||
			stubs[i].syncs[1] != predictor.SyncUnlock {
			t.Fatalf("core %d syncs = %v", i, stubs[i].syncs)
		}
		// Lock acquisition + release each write the lock line.
		if stubs[i].writes != 2 {
			t.Fatalf("core %d lock-line writes = %d", i, stubs[i].writes)
		}
	}
}

func TestLockSyncBeforeLockLineAccess(t *testing.T) {
	// §4.3: the SP-table update (OnSync) happens just after acquisition,
	// before the lock-line RMW, so the lock-line miss belongs to the
	// critical-section epoch.
	sim := event.New()
	co := NewCoordinator(sim, 1)
	stub := &memStub{sim: sim, lat: 5}
	order := []string{}
	wrap := &orderPort{inner: stub, order: &order}
	c := New(0, sim, wrap, co, []workload.Op{
		workload.SyncOp(workload.OpLock, 0x40, 1),
		workload.SyncOp(workload.OpUnlock, 0x40, 2),
		workload.EndOp(),
	}, nil)
	c.Start()
	sim.Run()
	want := []string{"sync:lock", "access", "access", "sync:unlock"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type orderPort struct {
	inner *memStub
	order *[]string
}

func (p *orderPort) Access(pc uint64, addr arch.Addr, write bool, done func()) {
	*p.order = append(*p.order, "access")
	p.inner.Access(pc, addr, write, done)
}

func (p *orderPort) OnSync(kind predictor.SyncKind, staticID uint64) {
	*p.order = append(*p.order, "sync:"+kind.String())
	p.inner.OnSync(kind, staticID)
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim := event.New()
	co := NewCoordinator(sim, 1)
	co.Unlock(0, 99)
}

func TestCoordinatorPendingDiagnostics(t *testing.T) {
	sim := event.New()
	co := NewCoordinator(sim, 3)
	co.Barrier(0, 5, func() {})
	if co.Pending() == "" {
		t.Fatal("pending barrier should be reported")
	}
	co.Lock(0, 9, func() {})
	co.Lock(1, 9, func() {})
	sim.Run()
	if co.Pending() == "" {
		t.Fatal("queued lock waiter should be reported")
	}
}

// TestCoordinatorSteadyStateAllocs: a barrier's waiter slice and a lock's
// queue keep their capacity, so a warmed barrier round and a warmed lock
// hand-off allocate nothing.
func TestCoordinatorSteadyStateAllocs(t *testing.T) {
	const n = 4
	sim := event.New()
	co := NewCoordinator(sim, n)
	nop := func() {}
	barrierRound := func() {
		for c := 0; c < n; c++ {
			co.Barrier(c, 5, nop)
		}
		sim.Run()
	}
	handOff := func() {
		for c := 0; c < n; c++ {
			co.Lock(c, 9, nop)
		}
		for c := 0; c < n; c++ {
			co.Unlock(c, 9)
		}
		sim.Run()
	}
	// Warm-up: every round moves the clock one cycle, so run enough rounds
	// to grow every bucket of the event ring once.
	for i := 0; i < 1024; i++ {
		barrierRound()
		handOff()
	}
	if avg := testing.AllocsPerRun(200, barrierRound); avg != 0 {
		t.Errorf("warmed barrier round: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, handOff); avg != 0 {
		t.Errorf("warmed lock hand-off: %v allocs/op, want 0", avg)
	}
	if p := co.Pending(); p != "" {
		t.Fatalf("released barrier and lock still reported pending: %q", p)
	}
}
