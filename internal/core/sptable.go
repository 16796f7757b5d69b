// Package core implements the paper's primary contribution: Synchronization
// Point based Prediction (SP-prediction, §4). Each node tracks its
// communication activity between synchronization points with a set of
// communication counters, extracts a hot communication set at each epoch
// boundary, stores it as a signature in the SP-table, and recalls past
// signatures to predict the destinations of misses in repeated epochs.
package core

import (
	"container/list"

	"spcoh/internal/arch"
)

// epochKey identifies an SP-table entry: the static ID of the sync-point
// that begins the epoch plus the owning processor. Lock entries are keyed
// by the lock address alone and shared by all processors (§4.3).
type epochKey struct {
	staticID uint64
	proc     arch.NodeID // arch.None for shared lock entries
	lock     bool
}

// entry is one SP-table record: a bounded history of communication
// signatures, most recent first.
type entry struct {
	key  epochKey
	sigs []arch.SharerSet
	// strideHits counts consecutive confirmations of a stride-2
	// (alternating) signature pattern (§4.4, Figure 6(c)).
	strideHits int
	lru        *list.Element
	// instances counts dynamic instances observed (statistics).
	instances int
}

// Table is the SP-table (§4.3): an associative structure with one entry per
// static sync-epoch per processor, plus shared entries for locks. A single
// Table instance is shared by all per-node predictors so that lock entries
// are globally visible, exactly as the paper's distributed implementation
// shares lock entries.
type Table struct {
	entries map[epochKey]*entry
	lru     *list.List
	// MaxEntries bounds the table (0 = unlimited). Eviction is LRU.
	MaxEntries int
	// Depth is the signature history depth d (the paper evaluates d=2).
	Depth int
}

// NewTable builds an SP-table with history depth d and optional capacity.
func NewTable(depth, maxEntries int) *Table {
	if depth < 1 {
		depth = 1
	}
	return &Table{entries: make(map[epochKey]*entry), lru: list.New(), Depth: depth, MaxEntries: maxEntries}
}

// Len returns the number of resident entries.
func (t *Table) Len() int { return len(t.entries) }

func (t *Table) get(k epochKey, create bool) *entry {
	if e, ok := t.entries[k]; ok {
		t.lru.MoveToFront(e.lru)
		return e
	}
	if !create {
		return nil
	}
	e := &entry{key: k}
	e.lru = t.lru.PushFront(e)
	t.entries[k] = e
	if t.MaxEntries > 0 && t.lru.Len() > t.MaxEntries {
		v := t.lru.Back().Value.(*entry)
		t.lru.Remove(v.lru)
		delete(t.entries, v.key)
	}
	return e
}

// push records a new signature for k, shifting out the oldest beyond Depth
// and updating stride-pattern detection state. The history shifts in place,
// so a slice returned by history is only valid until the next push.
func (t *Table) push(k epochKey, sig arch.SharerSet) {
	e := t.get(k, true)
	e.instances++
	if len(e.sigs) >= 2 && sig == e.sigs[1] && sig != e.sigs[0] {
		e.strideHits++
	} else if len(e.sigs) >= 1 {
		e.strideHits = 0
	}
	if len(e.sigs) < t.Depth {
		e.sigs = append(e.sigs, arch.SharerSet{})
	} else {
		e.sigs = e.sigs[:t.Depth]
	}
	copy(e.sigs[1:], e.sigs)
	e.sigs[0] = sig
}

// history returns the stored signatures for k (most recent first) and the
// stride confirmation count; nil if the epoch has never been seen.
func (t *Table) history(k epochKey) ([]arch.SharerSet, int) {
	e := t.get(k, false)
	if e == nil {
		return nil, 0
	}
	return e.sigs, e.strideHits
}

// StorageBits estimates the table's storage: per entry a 32-bit tag, a
// shared/lock bit and Depth signatures of `nodes` bits each (§4.6).
func (t *Table) StorageBits(nodes int) int {
	n := len(t.entries)
	if t.MaxEntries > 0 {
		n = t.MaxEntries
	}
	return n * (32 + 1 + t.Depth*nodes)
}
