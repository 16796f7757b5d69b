// Package cache implements the set-associative cache arrays used for the
// private L1 and L2 caches: LRU replacement and MESIF line states
// (paper Table 4: 64B lines; L1 16KB direct-mapped; L2 1MB 8-way).
//
// The package stores coherence metadata only — the simulator never models
// data values, just which lines are resident and in which state. Each
// resident line is one tag word (line address and state). Each set keeps
// its lines in recency order, the most recent in a per-set head word and
// the others in an overflow block allocated the first time the set holds
// two lines, so the replacement victim of a full set is its last way and
// storage follows occupancy, not capacity (DESIGN.md §16).
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

// Cache is a set-associative array with true-LRU replacement, stored as
// tag words only: line<<tagShift | state in one uint64, where 0 is an
// empty way. Within a set the resident lines are kept in
// recency order, so recency needs no stamps: a hit or an insert moves the
// line to the front, a removal closes the gap, and a full set's LRU line
// is its last way.
//
// Storage follows what each set holds, not its associativity. head[s] is
// set s's most recently used tag word, so an empty or one-line set is one
// word; its more bit says the set's other lines sit in an overflow block
// of ways-1 words in pool, packed at the block's front in recency order
// with empty words trailing. A set gets its block the first time it holds
// a second line and keeps it, all zero while the set holds one line or
// none, so refilling it allocates nothing. A direct-mapped cache is head
// alone (DESIGN.md §16).
type Cache struct {
	cfg  Config
	head []uint64
	// ovf[s] is the pool offset just past set s's block, 0 when the set
	// has none. ways > 1 only.
	ovf  []uint32
	pool []uint64
	// n is the overflow block size, ways-1 (0 when direct-mapped).
	n    int
	mask uint64
	// resident is the number of valid lines: Insert into an empty way adds
	// one, Invalidate and SetState(…, Invalid) subtract one.
	resident int
}

// A tag word holds the state in its low stateBits, the more bit (head
// words only), and the line address above them; line addresses must fit
// in the remaining 60 bits.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
	more      = 1 << stateBits
	tagShift  = stateBits + 1
	maxLine   = 1 << (64 - tagShift)
)

// New builds a cache. Capacity must be a positive multiple of
// LineSize*Ways and the set count must be a power of two. It allocates
// the head words (and the block offsets when Ways > 1); overflow blocks
// come later, one per set that ever holds two lines.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", sets))
	}
	c := &Cache{
		cfg:  cfg,
		head: make([]uint64, sets),
		n:    cfg.Ways - 1,
		mask: uint64(sets - 1),
	}
	if c.n > 0 {
		c.ovf = make([]uint32, sets)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// block returns set s's overflow block. Only a set whose head carries the
// more bit is sure to have one.
//
//spcoh:noalloc
func (c *Cache) block(s uint64) []uint64 {
	e := c.ovf[s]
	return c.pool[e-uint32(c.n) : e]
}

// grow returns set s's overflow block, carving it from the pool the first
// time the set holds a second line. A full pool is reallocated at about
// twice its size; its words past len are zero, as it never shrinks.
//
//spcoh:noalloc
func (c *Cache) grow(s uint64) []uint64 {
	if c.ovf[s] == 0 {
		k := len(c.pool) + c.n
		if k > cap(c.pool) {
			p := make([]uint64, len(c.pool), len(c.pool)+k) //spvet:allow noalloc -- cold path: the pool doubles, at most once per set
			copy(p, c.pool)
			c.pool = p
		}
		c.pool = c.pool[:k]
		c.ovf[s] = uint32(k)
	}
	return c.block(s)
}

// find scans an overflow block for addr. On a hit it returns the line's
// way; on a miss it returns the first empty way, or len(o) when the block
// is full.
//
//spcoh:noalloc
func find(o []uint64, addr arch.LineAddr) (int, bool) {
	for i, t := range o {
		if t == 0 {
			return i, false
		}
		if t>>tagShift == uint64(addr) {
			return i, true
		}
	}
	return len(o), false
}

// toFront writes t at way 0, shifting ways 0..i-1 down by one (way i is
// overwritten).
//
//spcoh:noalloc
func toFront(o []uint64, i int, t uint64) {
	copy(o[1:i+1], o[:i])
	o[0] = t
}

// remove empties way i, shifting the ways behind it up by one.
//
//spcoh:noalloc
func remove(o []uint64, i int) {
	copy(o[i:], o[i+1:])
	o[len(o)-1] = 0
}

// isHead reports whether head word h holds addr.
func isHead(h uint64, addr arch.LineAddr) bool {
	return h>>tagShift == uint64(addr) && h != 0
}

// Lookup returns the state of addr, Invalid when it is not resident. A hit
// makes the line most recently used; use Peek for silent inspection.
//
//spcoh:noalloc
func (c *Cache) Lookup(addr arch.LineAddr) State {
	s := uint64(addr) & c.mask
	h := c.head[s]
	if isHead(h, addr) {
		return State(h & stateMask)
	}
	if h&more == 0 {
		return Invalid
	}
	return c.lookupMore(s, addr)
}

// lookupMore is Lookup in set s's overflow block: a hit becomes the head,
// and the old head moves to the front of the block.
//
//spcoh:noalloc
func (c *Cache) lookupMore(s uint64, addr arch.LineAddr) State {
	o := c.block(s)
	i, hit := find(o, addr)
	if !hit {
		return Invalid
	}
	t := o[i]
	toFront(o, i, c.head[s]&^more)
	c.head[s] = t | more
	return State(t & stateMask)
}

// Peek returns the state of addr (Invalid when absent) without touching
// recency. Used for coherence probes (snoops, invalidations, predicted
// requests).
//
//spcoh:noalloc
func (c *Cache) Peek(addr arch.LineAddr) State {
	s := uint64(addr) & c.mask
	h := c.head[s]
	if isHead(h, addr) {
		return State(h & stateMask)
	}
	if h&more == 0 {
		return Invalid
	}
	o := c.block(s)
	if i, hit := find(o, addr); hit {
		return State(o[i] & stateMask)
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
// a line address of 60 bits or more.
//
//spcoh:noalloc
func (c *Cache) Insert(addr arch.LineAddr, st State) (v Victim, evicted bool) {
	if st == Invalid {
		panic("cache: inserting Invalid line") //spvet:allow noalloc -- constant panic message: static data, no allocation
	}
	if uint64(addr) >= maxLine {
		panic("cache: line address does not fit in 60 bits") //spvet:allow noalloc -- constant panic message: static data, no allocation
	}
	t := uint64(addr)<<tagShift | uint64(st)
	s := uint64(addr) & c.mask
	h := c.head[s]
	switch {
	case h == 0:
		c.resident++
	case isHead(h, addr):
		t |= h & more
	case c.n == 0:
		v, evicted = victim(h), true
	default:
		return c.insertMore(s, addr, t, h)
	}
	c.head[s] = t
	return v, evicted
}

// insertMore is Insert into a set whose head holds another line: the head
// moves to the front of the overflow block, over addr's old way, the first
// empty way or, in a full set, the LRU way, which is the victim.
//
//spcoh:noalloc
func (c *Cache) insertMore(s uint64, addr arch.LineAddr, t, h uint64) (v Victim, evicted bool) {
	o := c.grow(s) //spvet:allow noalloc -- inlined grow: cold path, once per set, the first time it holds two lines
	i, hit := find(o, addr)
	switch {
	case hit:
	case i == len(o):
		i--
		v, evicted = victim(o[i]), true
	default:
		c.resident++
	}
	toFront(o, i, h&^more)
	c.head[s] = t | more
	return v, evicted
}

// victim decodes tag word t.
func victim(t uint64) Victim {
	return Victim{Addr: arch.LineAddr(t >> tagShift), State: State(t & stateMask)}
}

// SetState transitions a resident line to st without changing its
// recency; st == Invalid removes it. It reports whether the line was
// resident.
func (c *Cache) SetState(addr arch.LineAddr, st State) bool {
	if st == Invalid {
		_, ok := c.Invalidate(addr)
		return ok
	}
	t := uint64(addr)<<tagShift | uint64(st)
	s := uint64(addr) & c.mask
	h := c.head[s]
	if isHead(h, addr) {
		c.head[s] = t | h&more
		return true
	}
	if h&more == 0 {
		return false
	}
	o := c.block(s)
	i, hit := find(o, addr)
	if hit {
		o[i] = t
	}
	return hit
}

// Invalidate removes addr if resident, reporting the prior state. When
// the head goes, the front of the overflow block takes its place.
//
//spcoh:noalloc
func (c *Cache) Invalidate(addr arch.LineAddr) (State, bool) {
	s := uint64(addr) & c.mask
	h := c.head[s]
	if isHead(h, addr) {
		c.resident--
		c.head[s] = 0
		if h&more != 0 {
			o := c.block(s)
			t := o[0]
			remove(o, 0)
			if o[0] != 0 {
				t |= more
			}
			c.head[s] = t
		}
		return State(h & stateMask), true
	}
	if h&more == 0 {
		return Invalid, false
	}
	o := c.block(s)
	i, hit := find(o, addr)
	if !hit {
		return Invalid, false
	}
	st := State(o[i] & stateMask)
	remove(o, i)
	if o[0] == 0 {
		c.head[s] = h &^ more
	}
	c.resident--
	return st, true
}

// ForEachValid calls fn for every valid line, in no specified order
// (coherence audit). Purely observational: no recency effects. Empty
// words of kept blocks are zero, so it walks head and pool whole.
func (c *Cache) ForEachValid(fn func(arch.LineAddr, State)) {
	for _, words := range [2][]uint64{c.head, c.pool} {
		for _, t := range words {
			if t != 0 {
				fn(arch.LineAddr(t>>tagShift), State(t&stateMask))
			}
		}
	}
}

// Occupancy returns the number of valid lines. It reads a counter the
// mutators keep exact, so it costs O(1); the directory's quiescence audit
// (protocol.System.CheckCoherence) sums it over every L2.
func (c *Cache) Occupancy() int { return c.resident }
