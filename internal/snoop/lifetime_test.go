package snoop

import (
	"fmt"
	"testing"

	"spcoh/internal/cpu"
	"spcoh/internal/event"
	"spcoh/internal/protocol"
	"spcoh/internal/scenario"
	"spcoh/internal/workload"
)

// runProgram replays prog on a fresh 16-tile snoop system, one core per
// tile as sim.Run wires them, and returns the system once the event queue
// has drained.
func runProgram(t *testing.T, prog *workload.Program, fast bool) *System {
	t.Helper()
	sim := event.New()
	sys := New(sim, protocol.DefaultConfig())
	sys.Fast = fast
	n := prog.NumThreads()
	co := cpu.NewCoordinator(sim, n)
	finished := 0
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(i, sim, sys.Nodes[i], co, prog.Threads[i], func() { finished++ })
		if fast {
			cores[i].EnableFast()
		}
	}
	for _, c := range cores {
		c.Start()
	}
	sim.Run()
	if finished != n {
		t.Fatalf("%s: %d of %d cores finished", prog.Name, finished, n)
	}
	return sys
}

// checkRecycled requires a drained system to hold no transaction and
// every txn record it ever built in its pool exactly once, with no use
// left pending.
func checkRecycled(t *testing.T, name string, sys *System) {
	t.Helper()
	if sys.Stats().Misses == 0 {
		t.Fatalf("%s: no miss to recycle a record for", name)
	}
	if k := sys.Outstanding(); k != 0 {
		t.Errorf("%s: %d transactions or arbitrated lines left", name, k)
	}
	if len(sys.txnPool) != sys.txnMade {
		t.Errorf("%s: %d of %d txn records back in the pool", name, len(sys.txnPool), sys.txnMade)
	}
	seen := make(map[*txn]int, len(sys.txnPool))
	for i, r := range sys.txnPool {
		if j, dup := seen[r]; dup {
			t.Fatalf("%s: pool slots %d and %d hold the same record", name, j, i)
		}
		seen[r] = i
		if r.pending != 0 || r.node != nil || r.done != nil || r.next != nil {
			t.Fatalf("%s: pooled record not cleared: %d pending, node %v, done set %v, next %v",
				name, r.pending, r.node != nil, r.done != nil, r.next != nil)
		}
	}
	if err := sys.CheckQuiescent(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestTxnLifetime runs broadcast snooping, detailed and fast, over every
// built-in profile and 20 generated scenario specs. A record released
// while a probe, a response or the speculative fetch still holds it would
// come back to the pool twice, or with a use pending, or not at all.
func TestTxnLifetime(t *testing.T) {
	var progs []*workload.Program
	for _, p := range workload.Builtin().Profiles() {
		prog, err := p.Program(16, 0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for seed := int64(1); seed <= 20; seed++ {
		prog, err := workload.FromSpec(scenario.Generate(seed, scenario.GenOptions{}), 16, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, prog := range progs {
		for _, fast := range []bool{false, true} {
			name := fmt.Sprintf("%s fast=%v", prog.Name, fast)
			checkRecycled(t, name, runProgram(t, prog, fast))
		}
	}
}
