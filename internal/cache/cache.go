// Package cache implements the set-associative cache arrays used for the
// private L1 and L2 caches: LRU replacement and MESIF line states
// (paper Table 4: 64B lines; L1 16KB direct-mapped; L2 1MB 8-way).
//
// The package stores coherence metadata only — the simulator never models
// data values, just which lines are resident and in which state. Each way
// is one tag word (line address and state), and each set keeps its
// resident lines packed at the front in recency order, so the replacement
// victim of a full set is its last way (DESIGN.md §16).
package cache

import (
	"fmt"

	"spcoh/internal/arch"
)

// State is a MESIF coherence state. The F (Forward) state marks the single
// shared copy responsible for servicing cache-to-cache transfers of clean
// data, the distinguishing feature of MESIF over MESI.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Forward
)

// String returns the one-letter MESIF name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Forward:
		return "F"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds a readable copy.
func (s State) Valid() bool { return s != Invalid }

// CanForward reports whether a cache in this state must respond with data to
// a predicted or forwarded request (paper §4.5: E, M or F).
func (s State) CanForward() bool { return s == Exclusive || s == Modified || s == Forward }

// Dirty reports whether eviction requires a writeback.
func (s State) Dirty() bool { return s == Modified }

// Config sizes a cache.
type Config struct {
	Bytes int // total capacity
	Ways  int // associativity (1 = direct-mapped)
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Bytes / (arch.LineSize * c.Ways) }

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative array with true-LRU replacement, stored as
// tag words only: one uint64 per way, line<<stateBits | state, where 0 is
// an empty way. The array is flat and set-major. Within a set the resident
// lines are packed at the front, most recently used first, and empty ways
// trail, so recency needs no stamps: a hit or an insert moves the line to
// the front, a removal closes the gap, and a full set's LRU line is its
// last way. An 8-way set is one 64-byte host cache line.
type Cache struct {
	cfg   Config
	tags  []uint64
	ways  int
	stats Stats
	mask  uint64
	// resident is the number of valid lines: Insert into an empty way adds
	// one, Invalidate and SetState(…, Invalid) subtract one.
	resident int
}

// stateBits is the width of the state field at the bottom of a tag word;
// line addresses must fit in the remaining 61 bits.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
	maxLine   = 1 << (64 - stateBits)
)

// New builds a cache. Capacity must be a positive multiple of
// LineSize*Ways and the set count must be a power of two.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", sets))
	}
	return &Cache{
		cfg:  cfg,
		tags: make([]uint64, sets*cfg.Ways),
		ways: cfg.Ways,
		mask: uint64(sets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

//spcoh:noalloc
func (c *Cache) set(addr arch.LineAddr) []uint64 {
	i := int(uint64(addr)&c.mask) * c.ways
	return c.tags[i : i+c.ways]
}

// find scans a set for addr. On a hit it returns the line's way; on a miss
// it returns the first empty way, or len(set) when the set is full.
//
//spcoh:noalloc
func find(set []uint64, addr arch.LineAddr) (int, bool) {
	for i, t := range set {
		if t == 0 {
			return i, false
		}
		if t>>stateBits == uint64(addr) {
			return i, true
		}
	}
	return len(set), false
}

// toFront writes t at way 0, shifting ways 0..i-1 down by one (way i is
// overwritten).
//
//spcoh:noalloc
func toFront(set []uint64, i int, t uint64) {
	copy(set[1:i+1], set[:i])
	set[0] = t
}

// remove empties way i, shifting the ways behind it up by one.
//
//spcoh:noalloc
func remove(set []uint64, i int) {
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
}

// Lookup returns the state of addr, Invalid when it is not resident. A hit
// makes the line most recently used and counts in the statistics; use Peek
// for silent inspection.
//
//spcoh:noalloc
func (c *Cache) Lookup(addr arch.LineAddr) State {
	set := c.set(addr)
	if i, hit := find(set, addr); hit {
		t := set[i]
		toFront(set, i, t)
		c.stats.Hits++
		return State(t & stateMask)
	}
	c.stats.Misses++
	return Invalid
}

// Peek returns the state of addr (Invalid when absent) without touching
// recency or statistics. Used for coherence probes (snoops, invalidations,
// predicted requests).
//
//spcoh:noalloc
func (c *Cache) Peek(addr arch.LineAddr) State {
	set := c.set(addr)
	if i, hit := find(set, addr); hit {
		return State(set[i] & stateMask)
	}
	return Invalid
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  arch.LineAddr
	State State
}

// Insert fills addr with the given state as the most recently used line,
// evicting the LRU way if the set is full. It returns the victim
// (evicted=false if an empty way was used). Inserting a line that is
// already resident updates its state. It panics on an Invalid state and on
// a line address of 61 bits or more.
//
//spcoh:noalloc
func (c *Cache) Insert(addr arch.LineAddr, st State) (v Victim, evicted bool) {
	if st == Invalid {
		panic("cache: inserting Invalid line") //spvet:allow noalloc -- constant panic message: static data, no allocation
	}
	if uint64(addr) >= maxLine {
		panic("cache: line address does not fit in 61 bits") //spvet:allow noalloc -- constant panic message: static data, no allocation
	}
	set := c.set(addr)
	i, hit := find(set, addr)
	if !hit && i == len(set) {
		i--
		t := set[i]
		v = Victim{Addr: arch.LineAddr(t >> stateBits), State: State(t & stateMask)}
		evicted = true
		c.stats.Evictions++
		if v.State.Dirty() {
			c.stats.Writebacks++
		}
	} else if !hit {
		c.resident++
	}
	toFront(set, i, uint64(addr)<<stateBits|uint64(st))
	return v, evicted
}

// SetState transitions a resident line to st without changing its
// recency; st == Invalid removes it. It reports whether the line was
// resident.
func (c *Cache) SetState(addr arch.LineAddr, st State) bool {
	set := c.set(addr)
	i, hit := find(set, addr)
	if !hit {
		return false
	}
	if st == Invalid {
		remove(set, i)
		c.resident--
	} else {
		set[i] = uint64(addr)<<stateBits | uint64(st)
	}
	return true
}

// Invalidate removes addr if resident, reporting the prior state.
//
//spcoh:noalloc
func (c *Cache) Invalidate(addr arch.LineAddr) (State, bool) {
	set := c.set(addr)
	i, hit := find(set, addr)
	if !hit {
		return Invalid, false
	}
	st := State(set[i] & stateMask)
	remove(set, i)
	c.resident--
	return st, true
}

// ForEachValid calls fn for every valid line, in no specified order
// (coherence audit). Purely observational: no recency or statistics
// effects.
func (c *Cache) ForEachValid(fn func(arch.LineAddr, State)) {
	for _, t := range c.tags {
		if t != 0 {
			fn(arch.LineAddr(t>>stateBits), State(t&stateMask))
		}
	}
}

// Occupancy returns the number of valid lines. It reads a counter the
// mutators keep exact, so it costs O(1); the directory's quiescence audit
// (protocol.System.CheckCoherence) sums it over every L2.
func (c *Cache) Occupancy() int { return c.resident }
