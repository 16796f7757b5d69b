package core

import (
	"math/rand"
	"slices"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

func cfg4() Config {
	c := DefaultConfig(4)
	c.WarmupMisses = 3
	c.NoiseMinComm = 2
	return c
}

// trainComm feeds n communicating read misses sourced by provider.
func trainComm(p *Predictor, provider arch.NodeID, n int) {
	for i := 0; i < n; i++ {
		p.Train(predictor.Miss{Node: p.self, Kind: predictor.ReadMiss},
			predictor.Outcome{Provider: provider, Communicating: true})
	}
}

func barrier(p *Predictor, staticID uint64) {
	p.OnSync(predictor.SyncEvent{Node: p.self, Kind: predictor.SyncBarrier, StaticID: staticID})
}

func TestD0WarmupPrediction(t *testing.T) {
	p := NewPredictor(cfg4(), 0, nil)
	barrier(p, 100)
	if set, tag := p.Predict(predictor.Miss{}); !set.Empty() || tag != predictor.TagNone {
		t.Fatalf("cold predictor should not predict: %v %v", set, tag)
	}
	trainComm(p, 2, 5) // past warm-up
	set, tag := p.Predict(predictor.Miss{})
	if tag != predictor.TagD0 || !set.Contains(2) {
		t.Fatalf("d=0 prediction = %v tag %v, want {2} d=0", set, tag)
	}
}

func TestHistoryRecall(t *testing.T) {
	p := NewPredictor(cfg4(), 0, nil)
	barrier(p, 100)
	trainComm(p, 3, 10)
	barrier(p, 200) // closes epoch 100 with hot set {3}
	barrier(p, 100) // reopens epoch 100: history available
	set, tag := p.Predict(predictor.Miss{})
	if tag != predictor.TagHistory || set != arch.SetOf(3) {
		t.Fatalf("history prediction = %v tag %v, want {3}", set, tag)
	}
}

func TestStableIntersection(t *testing.T) {
	p := NewPredictor(cfg4(), 0, nil)
	// Two instances of epoch 100: hot sets {1,2} then {2,3}.
	barrier(p, 100)
	trainComm(p, 1, 5)
	trainComm(p, 2, 5)
	barrier(p, 200)
	barrier(p, 100)
	trainComm(p, 2, 5)
	trainComm(p, 3, 5)
	barrier(p, 200)
	barrier(p, 100)
	set, tag := p.Predict(predictor.Miss{})
	if tag != predictor.TagHistory || set != arch.SetOf(2) {
		t.Fatalf("stable intersection = %v tag %v, want {2}", set, tag)
	}
}

func TestStridePattern(t *testing.T) {
	p := NewPredictor(cfg4(), 0, nil)
	// Alternating hot sets {1}, {3}, {1}, {3}: stride-2 pattern.
	providers := []arch.NodeID{1, 3, 1, 3, 1}
	for _, pr := range providers {
		barrier(p, 100)
		trainComm(p, pr, 6)
	}
	barrier(p, 100)
	// Last two signatures are {1},{3} (most recent {1}); the stride policy
	// predicts the one from two instances ago: {3}.
	set, _ := p.Predict(predictor.Miss{})
	if set != arch.SetOf(3) {
		t.Fatalf("stride prediction = %v, want {3}", set)
	}
}

func TestLockSequencePrediction(t *testing.T) {
	table := NewTable(2, 0)
	p0 := NewPredictor(cfg4(), 0, table)
	p1 := NewPredictor(cfg4(), 1, table)
	p2 := NewPredictor(cfg4(), 2, table)

	// Node 0 then node 1 acquire lock 0xL; node 2 acquires next and should
	// predict {0,1} (the last two holders).
	p0.OnSync(predictor.SyncEvent{Kind: predictor.SyncLock, StaticID: 0xF00})
	p1.OnSync(predictor.SyncEvent{Kind: predictor.SyncLock, StaticID: 0xF00})
	p2.OnSync(predictor.SyncEvent{Kind: predictor.SyncLock, StaticID: 0xF00})
	set, tag := p2.Predict(predictor.Miss{})
	if tag != predictor.TagLock || set != arch.SetOf(0, 1) {
		t.Fatalf("lock prediction = %v tag %v, want {0,1}", set, tag)
	}
	// Self is never predicted: node 1 re-acquiring sees {0,1}\{1} ∪ {2}...
	p1.OnSync(predictor.SyncEvent{Kind: predictor.SyncLock, StaticID: 0xF00})
	set, _ = p1.Predict(predictor.Miss{})
	if set.Contains(1) {
		t.Fatalf("prediction must exclude self: %v", set)
	}
	if !set.Contains(2) {
		t.Fatalf("most recent holder (2) should be predicted: %v", set)
	}
}

func TestNoiseFilter(t *testing.T) {
	p := NewPredictor(cfg4(), 0, nil)
	barrier(p, 100)
	trainComm(p, 3, 10)
	barrier(p, 200) // stores {3} for epoch 100
	barrier(p, 100)
	trainComm(p, 1, 1) // too quiet: below NoiseMinComm
	barrier(p, 200)    // must NOT store {1}
	barrier(p, 100)
	set, _ := p.Predict(predictor.Miss{})
	if set != arch.SetOf(3) {
		t.Fatalf("noisy instance polluted history: %v", set)
	}
	if p.NoisySkipped == 0 {
		t.Fatal("noisy skip not counted")
	}
}

func TestConfidenceRecovery(t *testing.T) {
	c := cfg4()
	c.ConfidenceMax = 2 // fast recovery for the test
	p := NewPredictor(c, 0, nil)
	barrier(p, 100)
	trainComm(p, 3, 10)
	barrier(p, 200)
	barrier(p, 100) // predicts {3}
	// Actual communication now goes to node 1: mispredictions drain
	// confidence, then recovery rebuilds from current counters.
	trainComm(p, 1, 10)
	set, tag := p.Predict(predictor.Miss{})
	if tag != predictor.TagRecovery || set != arch.SetOf(1) {
		t.Fatalf("recovery prediction = %v tag %v, want {1} recovery", set, tag)
	}
	if p.Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
}

func TestPredictExcludesSelf(t *testing.T) {
	p := NewPredictor(cfg4(), 2, nil)
	barrier(p, 1)
	// Hand-feed counters including self (should not happen, but the
	// predictor must still never predict itself).
	p.counters[2] = 100
	p.counters[0] = 100
	p.misses = 50
	set, _ := p.Predict(predictor.Miss{})
	if set.Contains(2) {
		t.Fatalf("self in predicted set: %v", set)
	}
}

func TestTableDepthAndLRU(t *testing.T) {
	tab := NewTable(2, 2)
	k1 := epochKey{staticID: 1, proc: 0}
	k2 := epochKey{staticID: 2, proc: 0}
	k3 := epochKey{staticID: 3, proc: 0}
	tab.push(k1, arch.SetOf(1))
	tab.push(k1, arch.SetOf(2))
	tab.push(k1, arch.SetOf(3))
	sigs, _ := tab.history(k1)
	if len(sigs) != 2 || sigs[0] != arch.SetOf(3) || sigs[1] != arch.SetOf(2) {
		t.Fatalf("history = %v, want depth-2 most-recent-first", sigs)
	}
	tab.push(k2, arch.SetOf(1))
	tab.push(k3, arch.SetOf(1)) // evicts LRU (k1? k1 was used most recently before k2)
	if tab.Len() != 2 {
		t.Fatalf("table len = %d, want 2", tab.Len())
	}
	if s, _ := tab.history(k3); len(s) != 1 {
		t.Fatal("newest entry missing")
	}
}

func TestStrideDetectionInTable(t *testing.T) {
	tab := NewTable(2, 0)
	k := epochKey{staticID: 9, proc: 1}
	a, b := arch.SetOf(1), arch.SetOf(2)
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			tab.push(k, a)
		} else {
			tab.push(k, b)
		}
	}
	if _, stride := tab.history(k); stride < 2 {
		t.Fatalf("alternating pushes should confirm stride, got %d", stride)
	}
	// A repeated signature breaks the alternation.
	tab.push(k, a)
	tab.push(k, a)
	if _, stride := tab.history(k); stride != 0 {
		t.Fatalf("stride should reset on stable pattern, got %d", stride)
	}
}

func TestStorageBitsSmall(t *testing.T) {
	cfg := DefaultConfig(16)
	preds := NewSystem(cfg)
	p := preds[0].(*Predictor)
	// Simulate 30 static epochs (paper Table 1 upper range).
	for i := 0; i < 30; i++ {
		p.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: uint64(i)})
		trainComm(p, 1, 10)
	}
	bits := p.StorageBits()
	// Paper §4.6: a 2KB aggregate SP-table is adequate; per node that is
	// ~1Kbit. Sanity: well under the ADDR predictor's kilo-entries.
	if bits <= 0 || bits > 16*1024 {
		t.Fatalf("storage bits = %d, implausible", bits)
	}
}

func TestOracleRecordReplay(t *testing.T) {
	book := NewOracleBook()
	r := NewRecorder(cfg4(), 0, book)
	// Two instances of epoch 5 with different hot sets.
	r.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 5})
	r.Train(predictor.Miss{}, predictor.Outcome{Provider: 1, Communicating: true})
	r.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 5})
	r.Train(predictor.Miss{}, predictor.Outcome{Provider: 3, Communicating: true})
	r.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 6}) // flush

	o := NewOracle(0, book)
	o.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 5})
	if set, _ := o.Predict(predictor.Miss{}); set != arch.SetOf(1) {
		t.Fatalf("oracle instance 0 = %v, want {1}", set)
	}
	o.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 5})
	if set, _ := o.Predict(predictor.Miss{}); set != arch.SetOf(3) {
		t.Fatalf("oracle instance 1 = %v, want {3}", set)
	}
	// Unknown instance: no prediction.
	o.OnSync(predictor.SyncEvent{Kind: predictor.SyncBarrier, StaticID: 99})
	if set, tag := o.Predict(predictor.Miss{}); !set.Empty() || tag != predictor.TagNone {
		t.Fatalf("unknown epoch should not predict: %v", set)
	}
}

func TestSharedTableAcrossNodes(t *testing.T) {
	cfg := cfg4()
	preds := NewSystem(cfg)
	p0 := preds[0].(*Predictor)
	p1 := preds[1].(*Predictor)
	if p0.Table() != p1.Table() {
		t.Fatal("NewSystem must share one SP-table")
	}
	// Barrier entries are per processor: node 0's history must not leak
	// into node 1's prediction.
	barrier(p0, 77)
	trainComm(p0, 3, 10)
	barrier(p0, 78)
	barrier(p1, 77)
	if set, _ := p1.Predict(predictor.Miss{}); !set.Empty() {
		t.Fatalf("node 1 should not see node 0's barrier history: %v", set)
	}
}

// TestTablePushMatchesPrepend replays random push sequences against a model
// of the history as prepend-then-truncate: after every push the history is
// the last Depth signatures, most recent first, and strideHits follows the
// model's stride rule exactly. Signatures come from a small alphabet so
// alternations, repeats and breaks all occur.
func TestTablePushMatchesPrepend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []arch.SharerSet{arch.EmptySet, arch.SetOf(1), arch.SetOf(2), arch.SetOf(1, 3)}
	for depth := 1; depth <= 4; depth++ {
		tab := NewTable(depth, 0)
		k := epochKey{staticID: 5, proc: 2}
		var model []arch.SharerSet
		stride := 0
		for i := 0; i < 500; i++ {
			sig := alphabet[rng.Intn(len(alphabet))]
			if len(model) >= 2 && sig == model[1] && sig != model[0] {
				stride++
			} else if len(model) >= 1 {
				stride = 0
			}
			model = append([]arch.SharerSet{sig}, model...)
			if len(model) > depth {
				model = model[:depth]
			}
			tab.push(k, sig)
			sigs, hits := tab.history(k)
			if !slices.Equal(sigs, model) || hits != stride {
				t.Fatalf("depth %d push %d: history %v stride %d, want %v stride %d",
					depth, i, sigs, hits, model, stride)
			}
		}
	}
}

// TestTablePushNoAlloc pins push to an existing full-depth entry at zero
// allocations: the history shifts in place.
func TestTablePushNoAlloc(t *testing.T) {
	tab := NewTable(2, 0)
	k := epochKey{staticID: 1, proc: 0}
	a, b := arch.SetOf(1), arch.SetOf(2)
	tab.push(k, a)
	tab.push(k, b)
	if avg := testing.AllocsPerRun(100, func() {
		tab.push(k, a)
		tab.push(k, b)
	}); avg != 0 {
		t.Errorf("push to a full-depth entry: %v allocs/op, want 0", avg)
	}
}

// TestTablePushEvictNoAlloc pins a push of a new epoch into a full bounded
// SP-table at zero allocations: the epoch takes the evicted entry's slot,
// and its signatures and stride count are reset in place.
func TestTablePushEvictNoAlloc(t *testing.T) {
	const limit = 512
	tab := NewTable(2, limit)
	id := uint64(0)
	for ; id < 10*limit; id++ {
		tab.push(epochKey{staticID: id, proc: 1}, arch.SetOf(2))
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tab.push(epochKey{staticID: id, proc: 1}, arch.SetOf(2))
		id++
	}); avg != 0 {
		t.Errorf("push of a new epoch into a full table: %v allocs/op, want 0", avg)
	}
	if tab.Len() != limit {
		t.Fatalf("len = %d, want %d", tab.Len(), limit)
	}
}
