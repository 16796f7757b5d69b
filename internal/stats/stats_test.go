package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean should be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 {
		t.Fatalf("mean = %v, want 3", m.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 9, -3} {
		h.Add(v)
	}
	if h.Total != 6 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Buckets[0] != 2 { // 0 and clamped -3
		t.Fatalf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[4] != 1 { // overflow for 9
		t.Fatalf("overflow = %d, want 1", h.Buckets[4])
	}
	if got := h.Fraction(1); got != 2.0/6.0 {
		t.Fatalf("fraction(1) = %v", got)
	}
	if got := h.FractionAtLeast(2); got != 2.0/6.0 {
		t.Fatalf("fractionAtLeast(2) = %v", got)
	}
}

// Regression: out-of-range bucket indices used to index Buckets directly
// and panic; they must report 0 (or, for FractionAtLeast with a negative
// index, the whole distribution).
func TestHistogramFractionOutOfRange(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 2} {
		h.Add(v)
	}
	for _, i := range []int{-1, -100, len(h.Buckets), len(h.Buckets) + 7} {
		if got := h.Fraction(i); got != 0 {
			t.Errorf("Fraction(%d) = %v, want 0", i, got)
		}
	}
	if got := h.FractionAtLeast(-1); got != 1 {
		t.Errorf("FractionAtLeast(-1) = %v, want 1 (covers all buckets)", got)
	}
	if got := h.FractionAtLeast(len(h.Buckets)); got != 0 {
		t.Errorf("FractionAtLeast(len) = %v, want 0", got)
	}
	if got := h.FractionAtLeast(len(h.Buckets) + 3); got != 0 {
		t.Errorf("FractionAtLeast(len+3) = %v, want 0", got)
	}
	// Empty histograms stay 0 everywhere.
	e := NewHistogram(2)
	if e.Fraction(0) != 0 || e.FractionAtLeast(-5) != 0 || e.FractionAtLeast(99) != 0 {
		t.Error("empty histogram must report 0 for every index")
	}
}

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution(4)
	d.Add(1, 10)
	d.Add(3, 30)
	if d.Total() != 40 {
		t.Fatalf("total = %d", d.Total())
	}
	c := d.Clone()
	c.Add(0, 5)
	if d.Total() != 40 {
		t.Fatal("clone aliases original")
	}
	d.Reset()
	if d.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCoverage(t *testing.T) {
	d := Distribution{90, 5, 5, 0}
	cov := d.Coverage()
	want := []float64{0.90, 0.95, 1.0, 1.0}
	for i := range want {
		if math.Abs(cov[i]-want[i]) > 1e-12 {
			t.Fatalf("coverage = %v, want %v", cov, want)
		}
	}
}

func TestHotSet(t *testing.T) {
	d := Distribution{90, 5, 5, 0, 12} // total 112; 10% threshold = 11.2
	hot := d.HotSet(0.10)
	if len(hot) != 2 || hot[0] != 0 || hot[1] != 4 {
		t.Fatalf("hot set = %v, want [0 4]", hot)
	}
	if got := (Distribution{}).HotSet(0.1); got != nil {
		t.Fatalf("empty dist hot set = %v, want nil", got)
	}
	// Every node at exactly the threshold is hot.
	eq := Distribution{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	if got := eq.HotSet(0.10); len(got) != 10 {
		t.Fatalf("uniform hot set size = %d, want 10", len(got))
	}
}

// Property: coverage is nondecreasing, bounded by [0,1], ends at 1 for any
// nonempty distribution.
func TestPropertyCoverageMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		d := make(Distribution, len(vals))
		nonzero := false
		for i, v := range vals {
			d[i] = uint64(v)
			if v > 0 {
				nonzero = true
			}
		}
		cov := d.Coverage()
		last := 0.0
		for _, c := range cov {
			if c < last-1e-12 || c < 0 || c > 1+1e-12 {
				return false
			}
			last = c
		}
		if nonzero && math.Abs(cov[len(cov)-1]-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hot set members each hold >= threshold share; non-members < threshold.
func TestPropertyHotSetThreshold(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDistribution(int(n%16) + 1)
		for i := range d {
			d[i] = uint64(rng.Intn(100))
		}
		total := float64(d.Total())
		if total == 0 {
			return d.HotSet(0.1) == nil
		}
		hot := d.HotSet(0.1)
		inHot := make(map[int]bool)
		for _, h := range hot {
			inHot[h] = true
		}
		for i, v := range d {
			share := float64(v) / total
			if inHot[i] && (share < 0.1-1e-12 || v == 0) {
				return false
			}
			if !inHot[i] && share >= 0.1 && v > 0 {
				return false
			}
		}
		return sort.IntsAreSorted(hot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Add(true)
	r.Add(false)
	r.Add(true)
	r.Add(true)
	if r.Value() != 0.75 {
		t.Fatalf("ratio = %v", r.Value())
	}
}

func TestGeoArithMean(t *testing.T) {
	if a := ArithMean([]float64{1, 2, 3}); a != 2 {
		t.Fatalf("arith = %v", a)
	}
	if a := ArithMean(nil); a != 0 {
		t.Fatalf("arith empty = %v", a)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Example", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddNote("a note")
	s := tb.String()
	for _, want := range []string{"== Example ==", "name", "alpha", "beta", "2.50", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	// Rows wider than the header must not panic and must render.
	tb2 := NewTable("", "a")
	tb2.AddRow("x", "extra")
	if !strings.Contains(tb2.String(), "extra") {
		t.Fatal("extra cell dropped")
	}
}
