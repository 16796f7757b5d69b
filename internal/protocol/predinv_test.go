package protocol

import (
	"math/rand"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
)

// predInvRun executes one seeded chaos-predictor run and returns the final
// cycle count and aggregate statistics. Chaos predictors issue predicted
// invalidations at nodes that hold nothing, which is exactly what populates
// recentPredInv. memLat, when non-zero, replaces the memory latency and so
// sets the race window (4*MemLatency).
func predInvRun(t *testing.T, seed int64, memLat event.Time) (event.Time, NodeStats) {
	t.Helper()
	cfg := testConfig()
	cfg.L2 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 2}
	cfg.L1 = cache.Config{Bytes: 2 * arch.LineSize, Ways: 1}
	if memLat != 0 {
		cfg.MemLatency = memLat
	}
	preds := make([]predictor.Predictor, 4)
	for i := range preds {
		preds[i] = &chaosPred{rng: rand.New(rand.NewSource(seed*19 + int64(i))), nodes: 4}
	}
	sim, sys := newTestSystem(t, cfg, preds)
	completed := 0
	driver(sim, sys, seed, 250, 12, &completed)
	sim.Run()
	if completed != 4*250 {
		t.Fatalf("seed %d: %d/%d accesses completed", seed, completed, 4*250)
	}
	quiesce(t, sim, sys, true)
	return sim.Now(), sys.Stats()
}

// TestPredInvEvictionInvisible pins the contract of prunePredInv: evicting
// expired recentPredInv entries must never change a coherence decision,
// because the poisoning lookup already rejects entries older than the
// window. The same seeded run is executed with the default lazy pruning and
// with pruning forced on every insert/lookup, at the default window and at
// windows of 40 and 2000 cycles; cycle counts and every statistic must
// match exactly.
func TestPredInvEvictionInvisible(t *testing.T) {
	defer func(min int) { predInvPruneMin = min }(predInvPruneMin)
	for _, memLat := range []event.Time{0, 10, 500} {
		for seed := int64(0); seed < 4; seed++ {
			predInvPruneMin = 1 << 30 // pruning effectively off
			lazyCycles, lazyStats := predInvRun(t, seed, memLat)
			predInvPruneMin = 0 // prune on every touch
			eagerCycles, eagerStats := predInvRun(t, seed, memLat)
			if lazyCycles != eagerCycles {
				t.Fatalf("memory latency %d seed %d: cycles diverge with eager eviction: %d vs %d",
					memLat, seed, lazyCycles, eagerCycles)
			}
			if lazyStats != eagerStats {
				t.Fatalf("memory latency %d seed %d: stats diverge with eager eviction:\nlazy  %+v\neager %+v",
					memLat, seed, lazyStats, eagerStats)
			}
		}
	}
}

// TestPredInvTableBounded verifies that with eager pruning the race-window
// table cannot accumulate stale entries: at quiescence every surviving
// entry is younger than the window.
func TestPredInvTableBounded(t *testing.T) {
	defer func(min int) { predInvPruneMin = min }(predInvPruneMin)
	predInvPruneMin = 0
	cfg := testConfig()
	cfg.MemLatency = 16 // a race window of 64 cycles
	preds := make([]predictor.Predictor, 4)
	for i := range preds {
		preds[i] = &chaosPred{rng: rand.New(rand.NewSource(int64(i) + 5)), nodes: 4}
	}
	sim, sys := newTestSystem(t, cfg, preds)
	completed := 0
	driver(sim, sys, 11, 300, 12, &completed)
	sim.Run()
	quiesce(t, sim, sys, true)
	for _, n := range sys.Nodes {
		// Force one more prune at the final time and check the survivors.
		n.prunePredInv()
		for l, at := range n.recentPredInv { //spvet:ordered
			if sim.Now()-at >= n.predInvWindow() {
				t.Fatalf("node %d: stale predicted-invalidation entry for line %v survived pruning (age %d >= window %d)",
					n.self, l, sim.Now()-at, n.predInvWindow())
			}
		}
	}
}
