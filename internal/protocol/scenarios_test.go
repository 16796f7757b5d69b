package protocol

import (
	"math/rand"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/predictor"
)

// These tests pin down the §4.5 corner cases one by one: partial
// predictions, non-forwardable predicted holders, home-node prediction,
// writeback races and the directory-assisted retry.

func TestPartialWritePrediction(t *testing.T) {
	// Sharers {0,1,2}; writer predicts only {0,1}: the directory must
	// invalidate the unpredicted sharer 2 and the write must still
	// complete with all three gone.
	preds := make([]predictor.Predictor, 4)
	preds[3] = &fixedPred{set: arch.SetOf(0, 1)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	for i := 0; i < 3; i++ {
		access(t, sim, sys.Nodes[i], 0xA000, false)
	}
	access(t, sim, sys.Nodes[3], 0xA000, true)
	line := arch.Addr(0xA000).Line()
	for i := 0; i < 3; i++ {
		if sys.Nodes[i].L2().Peek(line).Valid() {
			t.Fatalf("node %d not invalidated", i)
		}
	}
	st := sys.Stats()
	if st.PredCorrect != 0 || st.PredWrong != 1 {
		t.Fatalf("partial prediction must count as insufficient: %+v", st)
	}
	quiesce(t, sim, sys, true)
}

func TestPredictedSharedHolderNacksRead(t *testing.T) {
	// Node 1 holds the line in plain S (not F): a predicted read to it
	// must Nack, and the requester must still be served via the
	// directory path.
	preds := make([]predictor.Predictor, 4)
	preds[0] = &fixedPred{set: arch.SetOf(1)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	access(t, sim, sys.Nodes[2], 0xB000, true)  // node 2 owns M
	access(t, sim, sys.Nodes[1], 0xB000, false) // node 2 -> S, node 1 F
	access(t, sim, sys.Nodes[2], 0xB000, false) // refresh node 2 (S)
	// Now node 1 holds F. Make node 1 plain S by another read:
	access(t, sim, sys.Nodes[3], 0xB000, false) // node 3 takes F
	// Node 0 predicts node 1 (S holder): Nack + directory service.
	access(t, sim, sys.Nodes[0], 0xB000, false)
	st := sys.Stats()
	if st.Nacks == 0 {
		t.Fatal("S-state holder must Nack a predicted read")
	}
	if !sys.Nodes[0].L2().Peek(arch.Addr(0xB000).Line()).Valid() {
		t.Fatal("requester must still be served")
	}
	quiesce(t, sim, sys, true)
}

func TestPredictionOfHomeNode(t *testing.T) {
	// Predicting the line's home tile exercises prediction messages and
	// directory requests landing on the same node.
	line := arch.Addr(0xC000).Line()
	home := arch.NodeID(uint64(line) % 4)
	owner := (home + 1) % 4
	preds := make([]predictor.Predictor, 4)
	preds[2] = &fixedPred{set: arch.SetOf(home)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	access(t, sim, sys.Nodes[owner], 0xC000, true)
	access(t, sim, sys.Nodes[2], 0xC000, false) // predicts home (wrong owner)
	if !sys.Nodes[2].L2().Peek(line).Valid() {
		t.Fatal("read must complete despite predicting the home")
	}
	quiesce(t, sim, sys, true)
}

func TestEvictionOfForwardHolderThenReRead(t *testing.T) {
	// The F holder evicts (PutE); a later read must fall back to memory
	// supply and re-assign F.
	cfg := testConfig()
	cfg.L2 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1}
	sim, sys := newTestSystem(t, cfg, nil)
	access(t, sim, sys.Nodes[0], 0xD000, false) // E at node 0
	access(t, sim, sys.Nodes[1], 0xD000, false) // node 1 F, node 0 S
	// Conflict-evict node 1's F copy (4-set direct-mapped: +4 lines apart).
	for i := 1; i <= 4; i++ {
		access(t, sim, sys.Nodes[1], 0xD000+arch.Addr(i*4*arch.LineSize), false)
	}
	quiesce(t, sim, sys, false)
	// Node 2 reads: no F holder on chip; memory supplies; node 2 gets F.
	access(t, sim, sys.Nodes[2], 0xD000, false)
	if st := sys.Nodes[2].L2().Peek(arch.Addr(0xD000).Line()); st != cache.Forward {
		t.Fatalf("new reader state = %v, want F", st)
	}
	quiesce(t, sim, sys, false)
}

func TestSelfMissAfterOwnEviction(t *testing.T) {
	// A node misses on a line whose own eviction is still in flight: the
	// access must wait for the PutAck and then refetch cleanly.
	cfg := testConfig()
	cfg.L2 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1}
	sim, sys := newTestSystem(t, cfg, nil)
	n := sys.Nodes[0]
	done := 0
	n.Access(0, 0xE000, true, func() { done++ })
	sim.Run()
	// Evict 0xE000 by a conflicting fill, and immediately re-access it
	// before the PutM completes.
	n.Access(0, 0xE000+4*64, false, func() { done++ })
	n.Access(0, 0xE000, false, func() { done++ })
	sim.Run()
	if done != 3 {
		t.Fatalf("%d/3 accesses completed", done)
	}
	quiesce(t, sim, sys, false)
}

func TestUpgradeRaceWithRemoteWrite(t *testing.T) {
	// Two holders of a shared line upgrade simultaneously: the directory
	// serializes; one upgrades, the other is invalidated and refetches
	// with data. Exactly one M copy must remain.
	sim, sys := newTestSystem(t, testConfig(), nil)
	access(t, sim, sys.Nodes[0], 0xF000, false)
	access(t, sim, sys.Nodes[1], 0xF000, false)
	done := 0
	sys.Nodes[0].Access(0, 0xF000, true, func() { done++ })
	sys.Nodes[1].Access(0, 0xF000, true, func() { done++ })
	sim.Run()
	if done != 2 {
		t.Fatalf("%d/2 upgrades completed", done)
	}
	line := arch.Addr(0xF000).Line()
	owners := 0
	for _, n := range sys.Nodes {
		if n.L2().Peek(line) == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d M copies after racing upgrades", owners)
	}
	quiesce(t, sim, sys, false)
}

func TestGetRetryPath(t *testing.T) {
	// Force the retry race: two requesters predict the same owner for
	// conflicting requests; the loser's data plan fails and must recover
	// via MsgGetRetry. We approximate by racing a predicted read against
	// a predicted write on the same owner.
	preds := make([]predictor.Predictor, 4)
	preds[0] = &fixedPred{set: arch.SetOf(3)}
	preds[1] = &fixedPred{set: arch.SetOf(3)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	access(t, sim, sys.Nodes[3], 0x11000, true) // node 3 owns M
	done := 0
	sys.Nodes[0].Access(0, 0x11000, false, func() { done++ })
	sys.Nodes[1].Access(0, 0x11000, true, func() { done++ })
	sim.Run()
	if done != 2 {
		t.Fatalf("%d/2 racing requests completed", done)
	}
	quiesce(t, sim, sys, true)
}

func TestStressChaosLongSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Many seeds, tiny caches, adversarial predictions: the strongest
	// protocol validation in the suite.
	for seed := int64(100); seed < 130; seed++ {
		cfg := testConfig()
		cfg.L2 = cache.Config{Bytes: 8 * arch.LineSize, Ways: 2}
		cfg.L1 = cache.Config{Bytes: 2 * arch.LineSize, Ways: 1}
		preds := make([]predictor.Predictor, 4)
		for i := range preds {
			preds[i] = &chaosPred{rng: rand.New(rand.NewSource(seed*41 + int64(i))), nodes: 4}
		}
		sim, sys := newTestSystem(t, cfg, preds)
		completed := 0
		driver(sim, sys, seed, 400, 20, &completed)
		sim.Run()
		if completed != 4*400 {
			t.Fatalf("seed %d: %d/%d completed", seed, completed, 4*400)
		}
		quiesce(t, sim, sys, true)
	}
}
