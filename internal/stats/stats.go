// Package stats provides the measurement primitives used across the
// simulator: counters, running means, histograms, per-node communication
// distributions and cumulative-coverage curves (the quantities behind the
// paper's Figures 2, 4 and 5), plus a plain-text table renderer used by the
// experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean accumulates a running average.
type Mean struct {
	Sum   float64
	Count uint64
}

// Add records one sample.
func (m *Mean) Add(v float64) { m.Sum += v; m.Count++ }

// AddN records a sample with weight n.
func (m *Mean) AddN(v float64, n uint64) { m.Sum += v * float64(n); m.Count += n }

// Value returns the current mean (0 for no samples).
func (m *Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
// Values >= len(buckets) accumulate in the last (overflow) bucket.
type Histogram struct {
	Buckets []uint64
	Total   uint64
}

// NewHistogram returns a histogram with n regular buckets plus overflow.
func NewHistogram(n int) *Histogram { return &Histogram{Buckets: make([]uint64, n+1)} }

// Add records one sample of value v.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Buckets) {
		v = len(h.Buckets) - 1
	}
	h.Buckets[v]++
	h.Total++
}

// Fraction returns the fraction of samples in bucket i. An out-of-range
// index holds no samples, so it reports 0 rather than panicking.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 || i < 0 || i >= len(h.Buckets) {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.Total)
}

// FractionAtLeast returns the fraction of samples in buckets >= i. A
// negative i covers every bucket (reports 1 for a non-empty histogram);
// an i past the last bucket covers none (reports 0).
func (h *Histogram) FractionAtLeast(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	var n uint64
	for j := i; j < len(h.Buckets); j++ {
		n += h.Buckets[j]
	}
	return float64(n) / float64(h.Total)
}

// Distribution is a per-node tally of communication volume: element i holds
// the number of messages (or bytes) exchanged with node i. It is the raw
// material of the paper's Figure 2 plots and of hot-set extraction.
type Distribution []uint64

// NewDistribution returns a zeroed distribution over n nodes.
func NewDistribution(n int) Distribution { return make(Distribution, n) }

// Add records v units of communication with node i.
func (d Distribution) Add(i int, v uint64) { d[i] += v }

// Total returns the sum over all nodes.
func (d Distribution) Total() uint64 {
	var t uint64
	for _, v := range d {
		t += v
	}
	return t
}

// Clone returns a copy.
func (d Distribution) Clone() Distribution {
	c := make(Distribution, len(d))
	copy(c, d)
	return c
}

// Reset zeroes the distribution in place.
func (d Distribution) Reset() {
	for i := range d {
		d[i] = 0
	}
}

// Coverage returns the cumulative fraction of total volume covered by the
// top-k nodes, for k = 1..len(d). This is exactly the curve plotted in the
// paper's Figure 4: Coverage()[k-1] is the fraction of communication covered
// by the k hottest targets.
func (d Distribution) Coverage() []float64 {
	total := d.Total()
	out := make([]float64, len(d))
	if total == 0 {
		return out
	}
	sorted := d.Clone()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var cum uint64
	for i, v := range sorted {
		cum += v
		out[i] = float64(cum) / float64(total)
	}
	return out
}

// HotSet returns the set of node indices whose share of the total volume is
// at least threshold (e.g. 0.10 for the paper's 10% rule). An empty
// distribution yields an empty set.
func (d Distribution) HotSet(threshold float64) []int {
	total := d.Total()
	if total == 0 {
		return nil
	}
	var hot []int
	min := threshold * float64(total)
	for i, v := range d {
		if float64(v) >= min && v > 0 {
			hot = append(hot, i)
		}
	}
	return hot
}

// Ratio is a convenience for numerator/denominator pairs reported as
// fractions or percentages.
type Ratio struct{ Num, Den uint64 }

// Add increments the denominator, and the numerator if hit.
func (r *Ratio) Add(hit bool) {
	r.Den++
	if hit {
		r.Num++
	}
}

// Value returns Num/Den, or 0 when empty.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// Percent returns the ratio scaled to percent.
func (r Ratio) Percent() float64 { return 100 * r.Value() }

// GeoMean returns the geometric mean of vs, ignoring non-positive entries.
func GeoMean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ArithMean returns the arithmetic mean of vs (0 for empty).
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Fmt formats a float compactly for tables.
func Fmt(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
