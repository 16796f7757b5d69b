package predictor

import (
	"testing"

	"spcoh/internal/arch"
)

// always is a predictor that always predicts a fixed set.
type always struct{ set arch.SharerSet }

func (a *always) Name() string                       { return "always" }
func (a *always) Predict(Miss) (arch.SharerSet, Tag) { return a.set, TagOther }
func (a *always) Train(Miss, Outcome)                {}
func (a *always) OnSync(SyncEvent)                   {}
func (a *always) StorageBits() int                   { return 1 }

func TestFilterSuppressesPrivateRegions(t *testing.T) {
	f := NewRegionFilter(&always{set: arch.SetOf(3)})
	m := Miss{Line: 0x1000}
	// Fresh region: prediction passes through.
	if set, _ := f.Predict(m); set != arch.SetOf(3) {
		t.Fatalf("fresh region should predict: %v", set)
	}
	// Two memory-sourced misses mark the region private.
	f.Train(m, Outcome{Provider: arch.None, Communicating: false})
	f.Train(m, Outcome{Provider: arch.None, Communicating: false})
	if set, tag := f.Predict(m); !set.Empty() || tag != TagNone {
		t.Fatalf("private region should suppress: %v", set)
	}
	if f.Suppressed == 0 {
		t.Fatal("suppression not counted")
	}
	// Same region, nearby line: also suppressed (region granularity).
	if set, _ := f.Predict(Miss{Line: 0x1001}); !set.Empty() {
		t.Fatalf("nearby line should share the region state: %v", set)
	}
	// A different region is unaffected.
	if set, _ := f.Predict(Miss{Line: 0x9000}); set != arch.SetOf(3) {
		t.Fatalf("other region should predict: %v", set)
	}
}

func TestFilterResetsOnCommunication(t *testing.T) {
	f := NewRegionFilter(&always{set: arch.SetOf(1)})
	m := Miss{Line: 0x2000}
	f.Train(m, Outcome{Provider: arch.None, Communicating: false})
	f.Train(m, Outcome{Provider: arch.None, Communicating: false})
	f.Train(m, Outcome{Provider: 5, Communicating: true}) // shared again
	if set, _ := f.Predict(m); set.Empty() {
		t.Fatal("communicating miss must unblock the region")
	}
}

func TestFilterExternalRequestMarksShared(t *testing.T) {
	f := NewRegionFilter(&always{set: arch.SetOf(1)})
	m := Miss{Line: 0x3000}
	f.Train(m, Outcome{Communicating: false})
	f.Train(m, Outcome{Communicating: false})
	f.TrainExternal(0x3002, 7) // someone else touched the region
	if set, _ := f.Predict(m); set.Empty() {
		t.Fatal("external request must mark the region shared")
	}
}

func TestFilterMetadata(t *testing.T) {
	inner := &always{set: arch.SetOf(1)}
	f := NewRegionFilter(inner)
	if f.Name() != "always+filter" || f.inner != inner {
		t.Fatalf("metadata wrong: %q", f.Name())
	}
	f.Train(Miss{Line: 1}, Outcome{})
	if f.StorageBits() <= inner.StorageBits() {
		t.Fatal("filter storage must be accounted")
	}
}

func TestOwnerPolicy(t *testing.T) {
	cfg := DefaultAddrConfig(8)
	cfg.Policy = PolicyOwner
	g := NewGroup("ADDR", 0, cfg)
	m := Miss{Line: 4}
	trainN(g, m, arch.SetOf(2), 2)
	trainN(g, m, arch.SetOf(5), 3)
	set, _ := g.Predict(m)
	if set.Count() != 1 {
		t.Fatalf("owner policy must predict one node: %v", set)
	}
	if !set.Contains(5) {
		t.Fatalf("owner should be the hottest counter: %v", set)
	}
}

func TestGroupOwnerPolicy(t *testing.T) {
	cfg := DefaultAddrConfig(8)
	cfg.Policy = PolicyGroupOwner
	g := NewGroup("ADDR", 0, cfg)
	m := Miss{Line: 4}
	trainN(g, m, arch.SetOf(2, 5), 3)
	rset, _ := g.Predict(Miss{Line: 4, Kind: ReadMiss})
	wset, _ := g.Predict(Miss{Line: 4, Kind: WriteMiss})
	if rset.Count() != 1 {
		t.Fatalf("reads should use owner policy: %v", rset)
	}
	if wset != arch.SetOf(2, 5) {
		t.Fatalf("writes should use group policy: %v", wset)
	}
}
