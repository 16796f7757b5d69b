package predictor

import (
	"testing"
	"testing/quick"

	"spcoh/internal/arch"
)

func TestMissKindString(t *testing.T) {
	if ReadMiss.String() != "read" || WriteMiss.String() != "write" || UpgradeMiss.String() != "upgrade" {
		t.Fatal("MissKind strings wrong")
	}
}

func TestOutcomeTargets(t *testing.T) {
	o := Outcome{Provider: 3, Invalidated: arch.SetOf(1, 2)}
	if o.Targets() != arch.SetOf(1, 2, 3) {
		t.Fatalf("targets = %v", o.Targets())
	}
	o = Outcome{Provider: arch.None}
	if !o.Targets().Empty() {
		t.Fatalf("memory-only outcome should have no cache targets")
	}
}

func TestNullPredictor(t *testing.T) {
	var n Null
	if set, tag := n.Predict(Miss{}); !set.Empty() || tag != TagNone {
		t.Fatal("Null must never predict")
	}
	if n.StorageBits() != 0 || n.Name() != "directory" {
		t.Fatal("Null metadata wrong")
	}
}

func trainN(g *Group, m Miss, targets arch.SharerSet, n int) {
	for i := 0; i < n; i++ {
		g.Train(m, Outcome{Provider: arch.None, Invalidated: targets, Communicating: true})
	}
}

func TestGroupThreshold(t *testing.T) {
	g := NewAddr(0, 4)
	m := Miss{Node: 0, Line: 0x10}
	if set, tag := g.Predict(m); !set.Empty() || tag != TagNone {
		t.Fatal("untrained group must not predict")
	}
	trainN(g, m, arch.SetOf(2), 1)
	if set, _ := g.Predict(m); !set.Empty() {
		t.Fatalf("one training below threshold should not predict: %v", set)
	}
	trainN(g, m, arch.SetOf(2), 1)
	set, tag := g.Predict(m)
	if set != arch.SetOf(2) || tag != TagOther {
		t.Fatalf("prediction = %v tag %v, want {2}", set, tag)
	}
}

func TestGroupMacroblockSharing(t *testing.T) {
	g := NewAddr(0, 4)
	// Lines 0..3 share a 256-byte macroblock (4 lines of 64B).
	trainN(g, Miss{Line: 0}, arch.SetOf(3), 2)
	if set, _ := g.Predict(Miss{Line: 3}); set != arch.SetOf(3) {
		t.Fatalf("macroblock neighbors should share the entry: %v", set)
	}
	if set, _ := g.Predict(Miss{Line: 4}); !set.Empty() {
		t.Fatalf("next macroblock must not share: %v", set)
	}
}

func TestInstIndexesByPC(t *testing.T) {
	g := NewInst(0, 4)
	trainN(g, Miss{PC: 0x400, Line: 1}, arch.SetOf(1), 2)
	if set, _ := g.Predict(Miss{PC: 0x400, Line: 999}); set != arch.SetOf(1) {
		t.Fatalf("INST should predict by PC regardless of address: %v", set)
	}
	if set, _ := g.Predict(Miss{PC: 0x404, Line: 1}); !set.Empty() {
		t.Fatalf("different PC must not share entry: %v", set)
	}
}

func TestTrainDownDecay(t *testing.T) {
	g := NewAddr(0, 4)
	m := Miss{Line: 8}
	trainN(g, m, arch.SetOf(1), 3) // counter(1) = 3 (saturated), roll = 3
	// The 32nd training rolls over: every counter decays by one, so
	// counter(1) = 2 and counter(2) = 3-1 = 2, both at the threshold.
	trainN(g, m, arch.SetOf(2), int(TrainDownPeriod)-3)
	if set, _ := g.Predict(m); set != arch.SetOf(1, 2) {
		t.Fatalf("after one roll-over: %v, want {1,2}", set)
	}
	// A second roll-over, with training toward 2 only, takes counter(1)
	// below the threshold while counter(2) saturates again before it.
	trainN(g, m, arch.SetOf(2), int(TrainDownPeriod))
	if set, _ := g.Predict(m); set != arch.SetOf(2) {
		t.Fatalf("after two roll-overs: %v, want {2}: the inactive destination decays out", set)
	}
}

func TestGroupNeverPredictsSelf(t *testing.T) {
	g := NewAddr(2, 4)
	m := Miss{Node: 2, Line: 1}
	trainN(g, m, arch.SetOf(2, 3), 3)
	set, _ := g.Predict(m)
	if set.Contains(2) {
		t.Fatalf("self in prediction: %v", set)
	}
}

func TestGroupCapacityLRU(t *testing.T) {
	cfg := DefaultAddrConfig(4)
	cfg.Entries = 2
	g := NewGroup("ADDR", 0, cfg)
	trainN(g, Miss{Line: 0 * 4}, arch.SetOf(1), 2)
	trainN(g, Miss{Line: 1 * 4}, arch.SetOf(1), 2)
	trainN(g, Miss{Line: 2 * 4}, arch.SetOf(1), 2) // evicts macroblock 0
	if g.Len() != 2 {
		t.Fatalf("len = %d, want 2", g.Len())
	}
	if set, _ := g.Predict(Miss{Line: 0}); !set.Empty() {
		t.Fatalf("evicted entry must not predict: %v", set)
	}
}

// TestGroupEvictedSlotStartsClear checks that a key inserted into a full
// table starts from zeroed counters, not the evicted entry's: the new key
// reuses the evicted key's LRU slot.
func TestGroupEvictedSlotStartsClear(t *testing.T) {
	cfg := DefaultAddrConfig(4)
	cfg.Entries = 1
	g := NewGroup("ADDR", 0, cfg)
	trainN(g, Miss{Line: 0}, arch.SetOf(1), 3)
	trainN(g, Miss{Line: 4}, arch.SetOf(2), 1) // evicts macroblock 0
	if set, _ := g.Predict(Miss{Line: 4}); !set.Empty() {
		t.Fatalf("one training must not predict: %v (inherited counters?)", set)
	}
	trainN(g, Miss{Line: 4}, arch.SetOf(2), 1)
	if set, _ := g.Predict(Miss{Line: 4}); set != arch.SetOf(2) {
		t.Fatalf("prediction = %v, want {2}", set)
	}
}

// TestGroupEvictNoAlloc pins training a new key into a full bounded group
// predictor at zero allocations: the key takes the evicted entry's slot
// and its counters are cleared in place.
func TestGroupEvictNoAlloc(t *testing.T) {
	cfg := DefaultAddrConfig(16)
	cfg.Entries = 64
	g := NewGroup("ADDR-small", 0, cfg)
	line := func(block int) Miss { return Miss{Line: arch.LineAddr(4 * block)} } // 4 lines a macroblock
	block := 0
	for ; block < 100*cfg.Entries; block++ {
		g.Train(line(block), Outcome{Provider: 3, Communicating: true})
	}
	if avg := testing.AllocsPerRun(1000, func() {
		g.Train(line(block), Outcome{Provider: 3, Communicating: true})
		block++
	}); avg != 0 {
		t.Errorf("training a new key into a full group: %v allocs/op, want 0", avg)
	}
}

func TestExternalTraining(t *testing.T) {
	g := NewAddr(0, 4)
	g.TrainExternal(0x20, 3)
	g.TrainExternal(0x20, 3)
	if set, _ := g.Predict(Miss{Line: 0x20}); set != arch.SetOf(3) {
		t.Fatalf("external training should build prediction: %v", set)
	}
	// PC-indexed groups cannot use external requests.
	gi := NewInst(0, 4)
	gi.TrainExternal(0x20, 3)
	if gi.Len() != 0 {
		t.Fatal("INST must ignore external training")
	}
}

func TestUniPredictor(t *testing.T) {
	u := NewUni(0, 4)
	if set, tag := u.Predict(Miss{}); !set.Empty() || tag != TagNone {
		t.Fatal("untrained UNI must not predict")
	}
	for i := 0; i < 3; i++ {
		u.Train(Miss{}, Outcome{Provider: 2, Communicating: true})
	}
	set, _ := u.Predict(Miss{})
	if set != arch.SetOf(2) {
		t.Fatalf("UNI = %v, want {2}", set)
	}
	if u.StorageBits() >= NewAddr(0, 4).StorageBits()+37 {
		// UNI is a single untagged entry: far below any table.
		t.Fatalf("UNI storage = %d bits, implausible", u.StorageBits())
	}
}

func TestStorageAccounting(t *testing.T) {
	g := NewAddr(0, 16)
	trainN(g, Miss{Line: 0}, arch.SetOf(1), 1)
	trainN(g, Miss{Line: 100}, arch.SetOf(1), 1)
	// 2 entries x (2*16 + 5 + 32) = 138 bits.
	if g.StorageBits() != 2*(2*16+5+32) {
		t.Fatalf("storage = %d", g.StorageBits())
	}
	cfg := DefaultAddrConfig(16)
	cfg.Entries = 512
	gl := NewGroup("ADDR", 0, cfg)
	if gl.StorageBits() != 512*(2*16+5+32) {
		t.Fatalf("limited storage = %d", gl.StorageBits())
	}
}

// Property: predictions only ever contain trained destinations.
func TestPropertyPredictSubsetOfTrained(t *testing.T) {
	f := func(lines []uint8, targetsRaw []uint8) bool {
		g := NewAddr(0, 8)
		var trained arch.SharerSet
		for i, l := range lines {
			var tgt arch.NodeID
			if i < len(targetsRaw) {
				tgt = arch.NodeID(targetsRaw[i] % 8)
			}
			trained = trained.Add(tgt)
			g.Train(Miss{Line: arch.LineAddr(l)}, Outcome{Provider: tgt, Communicating: true})
		}
		for _, l := range lines {
			set, _ := g.Predict(Miss{Line: arch.LineAddr(l)})
			if !trained.Superset(set) {
				return false
			}
			if set.Contains(0) { // self
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
