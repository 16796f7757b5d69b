package protocol

import (
	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
)

// Tile is the cache side of one tile that both coherence protocols share:
// the tile ID, the private L1/L2 pair, the machine configuration and the
// hit counters, with the one L1/L2 hit routine. Node (directory) and
// snoop.Node (broadcast) embed it, so the protocols differ only in what a
// miss does (paper §5.1: snooping runs on "the same configuration as the
// one with directory").
type Tile struct {
	self   arch.NodeID
	l1, l2 *cache.Cache
	// cfg is a pointer: a Config value copy costs a runtime.duffcopy call
	// on every access.
	cfg  *Config
	hits TileStats
}

// TileStats counts the accesses a tile served and those its L1 and L2
// hit; a missed access counts once, when ClassifyMiss classifies it.
type TileStats struct {
	Accesses, L1Hits, L2Hits uint64
}

// NewTile builds tile self's empty caches, sized by *cfg.
func NewTile(self arch.NodeID, cfg *Config) Tile {
	return Tile{self: self, l1: cache.New(cfg.L1), l2: cache.New(cfg.L2), cfg: cfg}
}

// ID returns the tile ID.
func (t *Tile) ID() arch.NodeID { return t.self }

// L1 exposes the L1 array (tests).
func (t *Tile) L1() *cache.Cache { return t.l1 }

// L2 exposes the L2 array (snoop probes, tests and characterization).
func (t *Tile) L2() *cache.Cache { return t.l2 }

// HitStats returns a snapshot of the hit counters.
func (t *Tile) HitStats() TileStats { return t.hits }

// AccessFast is the hit path of both protocols and both modes (DESIGN.md
// §15). A hit returns the access latency: L1Latency for an L1 read hit,
// plus the L2 tag+data time for an L2 hit. A read looks up the L1, then
// the L2; an L2 read hit refills the L1. A write (the L1 is write-through)
// hits only on an L2 line in M or E, which it takes to M silently; it
// classifies with a silent Peek so that a write miss leaves recency
// untouched. A miss returns ok=false and is not counted:
// detailed Access then classifies it (ClassifyMiss), and the fast-mode
// core re-issues it through Access.
func (t *Tile) AccessFast(_ uint64, addr arch.Addr, write bool) (lat event.Time, ok bool) {
	line := addr.Line()
	if !write {
		if t.l1.Lookup(line).Valid() {
			t.hits.Accesses++
			t.hits.L1Hits++
			return t.cfg.L1Latency, true
		}
		if !t.l2.Lookup(line).Valid() {
			return 0, false
		}
	} else {
		if st := t.l2.Peek(line); st != cache.Modified && st != cache.Exclusive {
			return 0, false
		}
		t.l2.Lookup(line)
		t.l2.SetState(line, cache.Modified) // silent E->M upgrade
	}
	t.hits.Accesses++
	t.hits.L2Hits++
	t.l1.Insert(line, cache.Shared)
	return t.cfg.L1Latency + t.cfg.L2HitLatency(), true
}

// ClassifyMiss counts an access AccessFast missed and returns its miss
// kind. A write looks the line up in the L2 once, so an upgrade from S or
// F touches recency like any other L2 hit.
func (t *Tile) ClassifyMiss(line arch.LineAddr, write bool) predictor.MissKind {
	t.hits.Accesses++
	switch {
	case !write:
		return predictor.ReadMiss
	case t.l2.Lookup(line).Valid():
		return predictor.UpgradeMiss
	default:
		return predictor.WriteMiss
	}
}

// Fill installs a line in the L2 with state st and in the L1, and drops
// the L1 copy of the L2 victim it displaces. It returns that victim, with
// evicted=false when the L2 set had room; the eviction itself (a PutX or
// a writeback) is the protocol's.
func (t *Tile) Fill(l arch.LineAddr, st cache.State) (v cache.Victim, evicted bool) {
	v, evicted = t.l2.Insert(l, st)
	t.l1.Insert(l, cache.Shared)
	if evicted {
		t.l1.Invalidate(v.Addr)
	}
	return v, evicted
}

// Invalidate drops a line from both the L1 and the L2.
func (t *Tile) Invalidate(l arch.LineAddr) {
	t.l1.Invalidate(l)
	t.l2.Invalidate(l)
}
