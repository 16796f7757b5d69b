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
		return []workload.Op{{Kind: workload.OpCompute, N: 100}, {Kind: workload.OpEnd}}
	})
	// 2-issue: 100 cycles of work retire in 50.
	if sim.Now() != 50 {
		t.Fatalf("compute finished at %d, want 50", sim.Now())
	}
}

func TestMemoryOpsInOrder(t *testing.T) {
	cores, stubs, sim := runOps(t, 1, func(int) []workload.Op {
		return []workload.Op{
			{Kind: workload.OpRead, Addr: 0x100},
			{Kind: workload.OpWrite, Addr: 0x200},
			{Kind: workload.OpRead, Addr: 0x300},
			{Kind: workload.OpEnd},
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
			ops = append(ops, workload.Op{Kind: workload.OpCompute, N: 2000})
		}
		ops = append(ops,
			workload.Op{Kind: workload.OpBarrier, Static: 7},
			workload.Op{Kind: workload.OpEnd})
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
			{Kind: workload.OpLock, Static: 0xAA, Addr: arch.Addr(0xAA << 6)},
			{Kind: workload.OpCompute, N: 100},
			{Kind: workload.OpUnlock, Static: 0xAB, Addr: arch.Addr(0xAA << 6)},
			{Kind: workload.OpEnd},
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
		{Kind: workload.OpLock, Static: 1, Addr: 0x40},
		{Kind: workload.OpUnlock, Static: 2, Addr: 0x40},
		{Kind: workload.OpEnd},
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
