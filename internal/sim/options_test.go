package sim

import (
	"strings"
	"testing"

	"spcoh/internal/protocol"
	"spcoh/internal/workload"
)

// TestDeadlockDetected: a run whose event queue drains while a core is
// still blocked fails with a deadlock error instead of returning a result.
// This is the guard that keeps a stuck cell from running forever.
func TestDeadlockDetected(t *testing.T) {
	cfg, err := protocol.ConfigFor(4)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.NewBuilder("stuck", 4, 1).Finish(1, 0)
	// Only thread 0 reaches the barrier; the other three end without it.
	prog.Threads[0] = append([]workload.Op{workload.SyncOp(workload.OpBarrier, workload.BarrierAddr(7), 7)},
		prog.Threads[0]...)
	opt := DefaultOptions()
	opt.Machine = cfg
	if _, err := Run(prog, opt); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("blocked core: got err %v, want a deadlock error", err)
	}
}

func TestSmallMachine(t *testing.T) {
	cfg, err := protocol.ConfigFor(4)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildProgram(t, "water-ns", 4, 0.2, 1)
	opt := DefaultOptions()
	opt.Machine = cfg
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() == 0 || res.CommRatio() <= 0 {
		t.Fatalf("4-node run empty: %+v", res)
	}
}

func TestConfigForRejectsNonSquare(t *testing.T) {
	for _, n := range []int{0, 5, 7, 12, 200, 1024} {
		if _, err := protocol.ConfigFor(n); err == nil {
			t.Errorf("ConfigFor(%d) should error", n)
		}
	}
	for _, n := range []int{1, 4, 16, 64, 100, 256} {
		cfg, err := protocol.ConfigFor(n)
		if err != nil {
			t.Errorf("ConfigFor(%d): %v", n, err)
			continue
		}
		if cfg.Nodes != n || cfg.NoC.Nodes() != n {
			t.Errorf("ConfigFor(%d) = %+v", n, cfg)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	prog := buildProgram(t, "x264", 16, 0.1, 1)
	res, err := Run(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() != res.Nodes.Misses {
		t.Fatal("Misses accessor wrong for directory runs")
	}
	opt := DefaultOptions()
	opt.Protocol = Broadcast
	res, err = Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() != res.Snoop.Misses || res.AvgMissLatency() != res.Snoop.AvgMissLatency() {
		t.Fatal("accessors wrong for broadcast runs")
	}
}
