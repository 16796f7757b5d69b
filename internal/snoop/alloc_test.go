package snoop

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
)

// TestAllocsSnoopMissSteadyState pins a warm snoop miss at zero
// allocations: the transaction record and its per-destination probe and
// response records come off the System freelist, the broadcast delivers
// through a pre-bound callback with those records as its arguments, and
// the in-flight list and home arbitration queue are reused slices. A
// write/write/read ping-pong between two tiles makes every access a miss.
func TestAllocsSnoopMissSteadyState(t *testing.T) {
	sim := event.New()
	sys := New(sim, bigConfig())
	completed := 0
	done := func() { completed++ }
	const addr = arch.Addr(0x2000)
	round := func() {
		sys.Nodes[0].Access(0, addr, true, done)
		sim.Run()
		sys.Nodes[1].Access(0, addr, true, done)
		sim.Run()
		sys.Nodes[0].Access(0, addr, false, done)
		sim.Run()
	}
	// Warm up the freelist, the in-flight and arbitration slices and every
	// event-ring bucket the steady state lands on.
	const warm = 512
	for i := 0; i < warm; i++ {
		round()
	}
	misses := sys.Stats().Misses
	avg := testing.AllocsPerRun(200, round)
	// AllocsPerRun adds one warm-up round to the 200 measured ones.
	if got := sys.Stats().Misses - misses; got != 3*201 {
		t.Fatalf("measured rounds made %d misses, want %d (every access must miss)", got, 3*201)
	}
	if perMiss := avg / 3; perMiss != 0 {
		t.Errorf("steady-state snoop miss: %v allocs/miss, want 0", perMiss)
	}
	if err := sys.CheckQuiescent(); err != nil {
		t.Error(err)
	}
	if completed != 3*(warm+201) || sys.Outstanding() != 0 {
		t.Errorf("%d accesses completed (want %d), %d lines still arbitrated", completed, 3*(warm+201), sys.Outstanding())
	}
}
