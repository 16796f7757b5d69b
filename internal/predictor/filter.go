package predictor

import "spcoh/internal/arch"

// RegionFilter implements the orthogonal bandwidth-filtering technique the
// paper discusses in §5.3: "most [prediction attempts on non-communicating
// misses] can be detected and avoided by simple snoop filtering... a simple
// low cost TLB-based snoop filter can detect ~75% of them".
//
// It wraps any Predictor and tracks, per coarse region, whether recent
// misses were satisfied by memory (private/unshared data). Prediction
// attempts to regions that look private are suppressed, cutting the wasted
// multicast bandwidth of Figure 9 without touching the latency gains —
// communicating regions keep predicting.
type RegionFilter struct {
	inner Predictor

	// regionShift selects the filter granularity in line-address bits
	// (e.g. 6 => 64-line / 4KB regions, a TLB-page-like granularity).
	regionShift uint

	// state holds a small saturating counter per region: positive values
	// lean private (memory-sourced misses), zero or below lean shared.
	state map[uint64]int8

	// privateAt is the counter value at which a region is deemed private.
	privateAt int8

	// Suppressed counts predictions the filter blocked (statistics).
	Suppressed uint64
}

// NewRegionFilter wraps inner with a page-granularity (4KB) filter.
func NewRegionFilter(inner Predictor) *RegionFilter {
	return &RegionFilter{inner: inner, regionShift: 6, state: make(map[uint64]int8), privateAt: 2}
}

func (f *RegionFilter) region(l arch.LineAddr) uint64 { return uint64(l) >> f.regionShift }

// Name implements Predictor.
func (f *RegionFilter) Name() string { return f.inner.Name() + "+filter" }

// Predict implements Predictor: suppressed for private-looking regions.
func (f *RegionFilter) Predict(m Miss) (arch.SharerSet, Tag) {
	if f.state[f.region(m.Line)] >= f.privateAt {
		set, _ := f.inner.Predict(m)
		if !set.Empty() {
			f.Suppressed++
		}
		return arch.EmptySet, TagNone
	}
	return f.inner.Predict(m)
}

// Train implements Predictor: non-communicating misses push the region
// toward private; communicating misses reset it to shared immediately
// (missing a real communication opportunity is the expensive error).
func (f *RegionFilter) Train(m Miss, o Outcome) {
	r := f.region(m.Line)
	if o.Communicating {
		f.state[r] = -2
	} else if f.state[r] < f.privateAt {
		f.state[r]++
	}
	f.inner.Train(m, o)
}

// TrainExternal marks the region shared (another node asked about it) and
// forwards to predictors that learn from external requests.
func (f *RegionFilter) TrainExternal(line arch.LineAddr, requester arch.NodeID) {
	f.state[f.region(line)] = -2
	if et, ok := f.inner.(interface {
		TrainExternal(arch.LineAddr, arch.NodeID)
	}); ok {
		et.TrainExternal(line, requester)
	}
}

// OnSync implements Predictor.
func (f *RegionFilter) OnSync(e SyncEvent) { f.inner.OnSync(e) }

// StorageBits implements Predictor: 2 bits per tracked region plus a
// 20-bit tag, on top of the inner predictor.
func (f *RegionFilter) StorageBits() int {
	return f.inner.StorageBits() + len(f.state)*(2+20)
}
