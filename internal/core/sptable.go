// Package core implements the paper's primary contribution: Synchronization
// Point based Prediction (SP-prediction, §4). Each node tracks its
// communication activity between synchronization points with a set of
// communication counters, extracts a hot communication set at each epoch
// boundary, stores it as a signature in the SP-table, and recalls past
// signatures to predict the destinations of misses in repeated epochs.
package core

import (
	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

// epochKey identifies an SP-table entry: the static ID of the sync-point
// that begins the epoch plus the owning processor. Lock entries are keyed
// by the lock address alone and shared by all processors (§4.3).
type epochKey struct {
	staticID uint64
	proc     arch.NodeID // arch.None for shared lock entries
	lock     bool
}

// sigState is one SP-table entry's bookkeeping: how many of its depth
// signature slots are filled, and how many consecutive times a stride-2
// (alternating) signature pattern was confirmed (§4.4, Figure 6(c)).
type sigState struct {
	n          int
	strideHits int
}

// Table is the SP-table (§4.3): an associative structure with one entry per
// static sync-epoch per processor, plus shared entries for locks. A single
// Table instance is shared by all per-node predictors so that lock entries
// are globally visible, exactly as the paper's distributed implementation
// shares lock entries. Replacement is LRU; the entry in LRU slot s keeps
// its signatures, most recent first, in sigs[s*depth:(s+1)*depth] and its
// bookkeeping in hist[s].
type Table struct {
	lru   *predictor.LRU[epochKey]
	depth int // the signature history depth d (the paper evaluates d=2)
	sigs  []arch.SharerSet
	hist  []sigState
}

// NewTable builds an SP-table with history depth d and optional capacity
// (0 = unlimited).
func NewTable(depth, maxEntries int) *Table {
	if depth < 1 {
		depth = 1
	}
	return &Table{lru: predictor.NewLRU[epochKey](maxEntries), depth: depth}
}

// Len returns the number of resident entries.
func (t *Table) Len() int { return t.lru.Len() }

// push records a new signature for k, shifting out the oldest beyond the
// depth and updating stride-pattern detection state. The history shifts in
// place, so a slice returned by history is only valid until the next push.
func (t *Table) push(k epochKey, sig arch.SharerSet) {
	s, fresh := t.lru.Add(k)
	if fresh {
		t.sigs = predictor.Fresh(t.sigs, s, t.depth)
		t.hist = predictor.Fresh(t.hist, s, 1)
	}
	h := &t.hist[s]
	sigs := t.sigs[int(s)*t.depth:][:t.depth]
	if h.n >= 2 && sig == sigs[1] && sig != sigs[0] {
		h.strideHits++
	} else if h.n >= 1 {
		h.strideHits = 0
	}
	h.n = min(h.n+1, t.depth)
	copy(sigs[1:h.n], sigs)
	sigs[0] = sig
}

// history returns the stored signatures for k (most recent first) and the
// stride confirmation count; nil if the epoch has never been seen.
func (t *Table) history(k epochKey) ([]arch.SharerSet, int) {
	s, ok := t.lru.Get(k)
	if !ok {
		return nil, 0
	}
	h := t.hist[s]
	return t.sigs[int(s)*t.depth:][:h.n:h.n], h.strideHits
}

// StorageBits estimates the table's storage: per entry a 32-bit tag, a
// shared/lock bit and depth signatures of `nodes` bits each (§4.6).
func (t *Table) StorageBits(nodes int) int {
	return t.lru.Provisioned() * (32 + 1 + t.depth*nodes)
}
