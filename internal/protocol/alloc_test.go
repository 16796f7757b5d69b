package protocol

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
)

// pingPong runs a write/write/read ping-pong on one line between nodes 0
// and 1, each access driven to quiescence: every access is a coherence
// miss (a write miss, a write miss, then a read of the other node's
// modified copy, and the next round's first write is an upgrade).
func pingPong(sim *event.Sim, sys *System, addr arch.Addr, done func()) {
	sys.Nodes[0].Access(0x400, addr, true, done)
	sim.Run()
	sys.Nodes[1].Access(0x404, addr, true, done)
	sim.Run()
	sys.Nodes[0].Access(0x408, addr, false, done)
	sim.Run()
}

// TestAllocsMissSteadyState pins the steady-state coherence miss at zero
// allocations: MSHRs, messages, miss issues, directory accesses and memory
// fetches all come off the System freelists once warm, the directory line
// exists, and the receive path reads messages in place. It covers the
// baseline directory and a predictor whose every miss sends predicted
// requests to the other node.
func TestAllocsMissSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		preds []predictor.Predictor
	}{
		{"dir", nil},
		{"pred", []predictor.Predictor{
			&fixedPred{set: arch.SetOf(1)}, &fixedPred{set: arch.SetOf(0)}, nil, nil,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, sys := newTestSystem(t, testConfig(), tc.preds)
			completed := 0
			done := func() { completed++ }
			const addr = arch.Addr(0x2000)
			// Warm up: fill the freelists and drive enough rounds for the
			// event ring to have grown every bucket the steady state lands
			// on.
			const warm = 512
			for i := 0; i < warm; i++ {
				pingPong(sim, sys, addr, done)
			}
			misses := sys.Stats().Misses
			if avg := testing.AllocsPerRun(200, func() {
				pingPong(sim, sys, addr, done)
			}); avg != 0 {
				t.Errorf("steady-state ping-pong: %v allocs/round, want 0", avg)
			}
			// AllocsPerRun adds one warm-up round to the 200 measured ones.
			if got := sys.Stats().Misses - misses; got != 3*201 {
				t.Errorf("measured rounds made %d misses, want %d (every access must miss)", got, 3*201)
			}
			if completed != 3*(warm+201) {
				t.Errorf("%d accesses completed, want %d", completed, 3*(warm+201))
			}
			quiesce(t, sim, sys, tc.preds != nil)
		})
	}
}
