package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"spcoh/internal/arch"
)

// refLine and refCache are the stamp-LRU layout the tag-only sets replaced:
// one struct per way with a last-touch stamp from a per-cache clock, and
// eviction of the smallest stamp in a full set. They are kept here, and
// only here, as the reference model the recency-ordered sets must match.
type refLine struct {
	Addr  arch.LineAddr
	State State
	lru   uint64
}

type refCache struct {
	lines []refLine
	ways  int
	clock uint64
	mask  uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.Sets()
	return &refCache{lines: make([]refLine, sets*cfg.Ways), ways: cfg.Ways, mask: uint64(sets - 1)}
}

func (c *refCache) set(addr arch.LineAddr) []refLine {
	i := int(uint64(addr)&c.mask) * c.ways
	return c.lines[i : i+c.ways]
}

func (c *refCache) Lookup(addr arch.LineAddr) *refLine {
	set := c.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == addr {
			c.clock++
			set[i].lru = c.clock
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Peek(addr arch.LineAddr) *refLine {
	set := c.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Insert(addr arch.LineAddr, st State) (v Victim, evicted bool) {
	set := c.set(addr)
	c.clock++
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == addr {
			set[i].State = st
			set[i].lru = c.clock
			return Victim{}, false
		}
	}
	for i := range set {
		if !set[i].State.Valid() {
			set[i] = refLine{Addr: addr, State: st, lru: c.clock}
			return Victim{}, false
		}
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v = Victim{Addr: set[vi].Addr, State: set[vi].State}
	set[vi] = refLine{Addr: addr, State: st, lru: c.clock}
	return v, true
}

func (c *refCache) SetState(addr arch.LineAddr, st State) bool {
	set := c.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == addr {
			if st == Invalid {
				set[i] = refLine{}
			} else {
				set[i].State = st
			}
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr arch.LineAddr) (State, bool) {
	set := c.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == addr {
			st := set[i].State
			set[i] = refLine{}
			return st, true
		}
	}
	return Invalid, false
}

func (c *refCache) resident() []refLine {
	var out []refLine
	for _, l := range c.lines {
		if l.State.Valid() {
			out = append(out, refLine{Addr: l.Addr, State: l.State})
		}
	}
	return out
}

func refState(l *refLine) State {
	if l == nil {
		return Invalid
	}
	return l.State
}

func resident(c *Cache) []refLine {
	var out []refLine
	c.ForEachValid(func(a arch.LineAddr, st State) {
		out = append(out, refLine{Addr: a, State: st})
	})
	return out
}

func sortLines(ls []refLine) []refLine {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Addr < ls[j].Addr })
	return ls
}

// diffMix weights the operations of one differential run: a Lookup, Peek,
// Insert, SetState or Invalidate is drawn with odds lookup:peek:insert:
// setState:invalidate. A mix with swing alternates fill phases (inserts
// only) with drain phases every swing ops; a drain removes a resident
// line (Invalidate, or SetState to Invalid) four times in five, so sets
// move between empty, one line, a few lines and full. mru is the chance
// that a SetState or Invalidate targets the line touched last, the head
// of its set, while its other lines sit in overflow.
type diffMix struct {
	name                                       string
	lookup, peek, insert, setState, invalidate int
	swing                                      int
	mru                                        float64
}

var diffMixes = []diffMix{
	{name: "churn", lookup: 3, peek: 1, insert: 4, setState: 1, invalidate: 1},
	{name: "swing", lookup: 3, peek: 1, insert: 4, setState: 1, invalidate: 1, swing: 150},
	{name: "mru", lookup: 3, peek: 1, insert: 3, setState: 2, invalidate: 2, mru: 0.6},
}

// TestDifferentialLRUModel drives the cache and the stamp-LRU reference
// with the same random operation mixes and requires identical answers,
// victims and resident sets, and checks the head-and-overflow layout
// after every op (checkLayout). Addresses fall on a few sets only (plus
// large line numbers near the 60-bit limit), so sets fill, evict and
// develop gaps constantly; at 16 ways a set holds 8 lines and more.
func TestDifferentialLRUModel(t *testing.T) {
	states := []State{Shared, Exclusive, Modified, Forward}
	for _, mix := range diffMixes {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			var cov diffCoverage
			for seed := int64(1); seed <= 20; seed++ {
				diffRun(t, mix, ways, seed, states, &cov)
			}
			// The mixes must reach the layout's transitions they are
			// there for, or the comparison above proves little.
			name := fmt.Sprintf("%s ways %d", mix.name, ways)
			if mix.swing > 0 {
				for _, k := range []int{0, 1, min(2, ways), min(9, ways)} {
					if cov.lines&(1<<k) == 0 {
						t.Errorf("%s: no op left its set holding %d lines (9: 9 or more)", name, k)
					}
				}
			}
			if mix.mru > 0 && ways > 1 && cov.headRemovals == 0 {
				t.Errorf("%s: no head was removed while its set had lines in overflow", name)
			}
		}
	}
}

// diffCoverage records what a mix reached: bit k of lines is set when an
// op left its set holding k lines (k = 9 for 9 or more), and headRemovals
// counts removals of a head whose set had lines in overflow.
type diffCoverage struct {
	lines        uint16
	headRemovals int
}

// setLines counts the lines set s holds.
func setLines(c *Cache, s uint64) int {
	n := 0
	if c.head[s] != 0 {
		n++
	}
	if c.head[s]&more != 0 {
		for _, w := range c.block(s) {
			if w != 0 {
				n++
			}
		}
	}
	return n
}

func diffRun(t *testing.T, mix diffMix, ways int, seed int64, states []State, cov *diffCoverage) {
	cfg := Config{Bytes: 16 * ways * arch.LineSize, Ways: ways} // 16 sets
	c, ref := New(cfg), newRef(cfg)
	rng := rand.New(rand.NewSource(seed*10 + int64(ways)))
	hot := 1 + rng.Intn(3) // sets in play
	addr := func() arch.LineAddr {
		// 3 tags per way per hot set: enough to overflow every set.
		a := arch.LineAddr(rng.Intn(hot) + 16*rng.Intn(3*ways))
		if rng.Intn(8) == 0 {
			a += maxLine - 1<<10 // high bits set, same set index
		}
		return a
	}
	total := mix.lookup + mix.peek + mix.insert + mix.setState + mix.invalidate
	var last arch.LineAddr
	for op := 0; op < 6000; op++ {
		a := addr()
		k := rng.Intn(total)
		drain := false
		if mix.swing > 0 {
			// Fill phases insert only; drain phases mostly remove
			// resident lines.
			if (op/mix.swing)%2 == 0 {
				k = mix.lookup + mix.peek
			} else {
				k = mix.lookup + mix.peek + mix.insert + rng.Intn(mix.setState+mix.invalidate)
				if rs := ref.resident(); len(rs) > 0 && rng.Intn(5) != 0 {
					a, drain = rs[rng.Intn(len(rs))].Addr, true
				}
			}
		}
		where := fmt.Sprintf("%s ways %d seed %d op %d", mix.name, ways, seed, op)
		switch {
		case k < mix.lookup:
			if got, want := c.Lookup(a), refState(ref.Lookup(a)); got != want {
				t.Fatalf("%s: Lookup(%#x) = %v, model %v", where, uint64(a), got, want)
			}
		case k < mix.lookup+mix.peek:
			if got, want := c.Peek(a), refState(ref.Peek(a)); got != want {
				t.Fatalf("%s: Peek(%#x) = %v, model %v", where, uint64(a), got, want)
			}
		case k < mix.lookup+mix.peek+mix.insert:
			st := states[rng.Intn(len(states))]
			v, ev := c.Insert(a, st)
			rv, rev := ref.Insert(a, st)
			if v != rv || ev != rev {
				t.Fatalf("%s: Insert(%#x) = %+v,%v, model %+v,%v", where, uint64(a), v, ev, rv, rev)
			}
		case k < total-mix.invalidate:
			if rng.Float64() < mix.mru {
				a = last
			}
			st := State(rng.Intn(int(Forward) + 1)) // Invalid included
			if drain {
				st = Invalid
			}
			if st == Invalid {
				cov.countHeadRemoval(c, a)
			}
			if got, want := c.SetState(a, st), ref.SetState(a, st); got != want {
				t.Fatalf("%s: SetState(%#x, %v) = %v, model %v", where, uint64(a), st, got, want)
			}
		default:
			if rng.Float64() < mix.mru {
				a = last
			}
			cov.countHeadRemoval(c, a)
			st, ok := c.Invalidate(a)
			rst, rok := ref.Invalidate(a)
			if st != rst || ok != rok {
				t.Fatalf("%s: Invalidate(%#x) = %v,%v, model %v,%v", where, uint64(a), st, ok, rst, rok)
			}
		}
		last = a
		checkLayout(t, where, c)
		cov.lines |= 1 << min(setLines(c, uint64(a)&c.mask), 9)
		// Occupancy is a counter the mutators keep, so it is checked after
		// every op, not only with the resident set.
		if got, want := c.Occupancy(), len(ref.resident()); got != want {
			t.Fatalf("%s: occupancy %d, model %d", where, got, want)
		}
		if op%500 == 499 {
			got, want := sortLines(resident(c)), sortLines(ref.resident())
			if len(got) != len(want) {
				t.Fatalf("%s: %d resident lines, model %d", where, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: resident %+v, model %+v", where, got[i], want[i])
				}
			}
		}
	}
}

// countHeadRemoval counts a removal of addr that hits the head of a set
// with lines in overflow.
func (cov *diffCoverage) countHeadRemoval(c *Cache, addr arch.LineAddr) {
	if h := c.head[uint64(addr)&c.mask]; isHead(h, addr) && h&more != 0 {
		cov.headRemovals++
	}
}

// checkLayout checks the head-and-overflow invariants of every set: the
// more bit is set exactly when the set's block holds a line, a set
// without it has an all-zero block (if any), block lines are packed at
// the front and never carry the more bit, and the resident counter counts
// every nonzero word.
func checkLayout(t *testing.T, where string, c *Cache) {
	t.Helper()
	n := 0
	for s, h := range c.head {
		if h != 0 {
			n++
		}
		var o []uint64
		if c.ovf != nil && c.ovf[s] != 0 {
			o = c.block(uint64(s))
		}
		if h&more != 0 && (len(o) == 0 || o[0] == 0) {
			t.Fatalf("%s: set %d head %#x has the more bit but an empty block", where, s, h)
		}
		if h&more == 0 && len(o) > 0 && o[0] != 0 {
			t.Fatalf("%s: set %d block holds %#x under a head without the more bit", where, s, o[0])
		}
		for i, w := range o {
			if w&more != 0 || (w != 0 && i > 0 && o[i-1] == 0) {
				t.Fatalf("%s: set %d block %#x not packed or carries the more bit", where, s, o)
			}
			if w != 0 {
				n++
			}
		}
	}
	if n != c.resident {
		t.Fatalf("%s: %d nonzero tag words, resident counter %d", where, n, c.resident)
	}
}

// TestKeptBlockRefill empties a set that had an overflow block and fills
// it again: the block is reused (no allocation, no pool growth) and
// recency, victims and states come out as for a fresh set.
func TestKeptBlockRefill(t *testing.T) {
	c := New(Config{Bytes: 4 * 4 * arch.LineSize, Ways: 4}) // 4 sets
	for _, a := range []arch.LineAddr{0, 4, 8} {
		c.Insert(a, Shared)
	}
	pool := len(c.pool)
	if pool != 3 || c.ovf[0] == 0 {
		t.Fatalf("pool %d words, set 0 block end %d: want one 3-word block", pool, c.ovf[0])
	}
	c.Invalidate(4)
	c.SetState(0, Invalid)
	c.Invalidate(8)
	if c.Occupancy() != 0 || c.head[0] != 0 || c.ovf[0] == 0 {
		t.Fatalf("emptied set: occupancy %d, head %#x, block end %d", c.Occupancy(), c.head[0], c.ovf[0])
	}
	checkLayout(t, "emptied", c)
	var v Victim
	var ev bool
	allocs := testing.AllocsPerRun(1, func() {
		for _, a := range []arch.LineAddr{12, 16, 20, 24} {
			c.Insert(a, Exclusive)
		}
		c.Lookup(12)                   // 16 is now the LRU line
		v, ev = c.Insert(28, Modified) // and the victim
	})
	if allocs != 0 || len(c.pool) != pool {
		t.Fatalf("refill: %v allocs, pool %d words; want 0 and %d", allocs, len(c.pool), pool)
	}
	if !ev || v != (Victim{Addr: 16, State: Exclusive}) {
		t.Fatalf("refill victim %+v (evicted=%v), want line 16 in E", v, ev)
	}
	checkLayout(t, "refilled", c)
	for _, a := range []arch.LineAddr{28, 12, 24, 20} {
		if c.Peek(a) == Invalid {
			t.Fatalf("line %d not resident after refill", a)
		}
	}
}

func TestInsertWideLinePanics(t *testing.T) {
	c := small()
	c.Insert(maxLine-1, Shared) // the widest line that fits
	if c.Peek(maxLine-1) != Shared {
		t.Fatal("widest line not resident")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic inserting a line of 60 bits or more")
		}
	}()
	c.Insert(maxLine, Shared)
}

// minAlloc runs setup, then measures the objects and bytes op allocates,
// five times over, and returns the smallest counts. MemStats is
// process-wide, so a runtime allocation landing inside one measured
// window would count against op; the smallest window is op's own cost.
func minAlloc(setup func() *Cache, op func(*Cache)) (objs, bytes uint64) {
	objs, bytes = ^uint64(0), ^uint64(0)
	for range 5 {
		c := setup()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		op(c)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		objs = min(objs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objs, bytes
}

// TestFootprintPaperL2 bounds what New allocates for the paper's L2 (1 MB,
// 8-way): one 8-byte head word and one 4-byte block offset per set plus
// the Cache header, and no overflow block.
func TestFootprintPaperL2(t *testing.T) {
	cfg := Config{Bytes: 1 << 20, Ways: 8}
	sets := uint64(cfg.Sets())
	var c *Cache
	_, got := minAlloc(func() *Cache { return nil }, func(*Cache) { c = New(cfg) })
	runtime.KeepAlive(c)
	header := uint64(128)
	if ceiling := 12*sets + header; got > ceiling {
		t.Fatalf("New(1MB 8-way) allocated %d B, ceiling %d B (12 B per set for %d sets + %d B header)",
			got, ceiling, sets, header)
	}
}

// TestFootprintGrowth checks that tag storage grows with what the sets
// hold: one line in each of the paper L2's sets allocates nothing, and a
// second line in one set allocates exactly one overflow block of ways-1
// words.
func TestFootprintGrowth(t *testing.T) {
	cfg := Config{Bytes: 1 << 20, Ways: 8}
	sets := arch.LineAddr(cfg.Sets())
	objs, bytes := minAlloc(func() *Cache { return New(cfg) }, func(c *Cache) {
		for a := arch.LineAddr(0); a < sets; a++ {
			c.Insert(a, Shared)
		}
	})
	if objs != 0 || bytes != 0 {
		t.Fatalf("one line in each of %d sets: %d objects, %d B allocated; want none", sets, objs, bytes)
	}
	oneLine := func() *Cache {
		c := New(cfg)
		c.Insert(0, Shared)
		return c
	}
	var c *Cache
	objs, bytes = minAlloc(oneLine, func(cc *Cache) {
		cc.Insert(sets, Shared) // set 0 again
		c = cc
	})
	block := uint64(8 * (cfg.Ways - 1))
	if objs != 1 || bytes < block || bytes > 8*uint64(cfg.Ways) {
		t.Fatalf("second line in a set: %d objects, %d B; want one %d B block", objs, bytes, block)
	}
	if len(c.pool) != cfg.Ways-1 || c.Occupancy() != 2 {
		t.Fatalf("pool %d words, occupancy %d; want %d and 2", len(c.pool), c.Occupancy(), cfg.Ways-1)
	}
}

// TestAllocsWarmOps pins the hot operations at zero allocations on a warm
// cache: a hit, a miss, a probe, an eviction and an invalidation.
func TestAllocsWarmOps(t *testing.T) {
	c := New(Config{Bytes: 1 << 20, Ways: 8})
	sets := arch.LineAddr(c.Config().Sets())
	for i := arch.LineAddr(0); i < 8; i++ {
		c.Insert(i*sets, Shared)
	}
	var n arch.LineAddr
	allocs := testing.AllocsPerRun(200, func() {
		n++
		c.Lookup(3 * sets)
		c.Lookup(1 + n*sets)
		c.Peek(5 * sets)
		c.Insert((8+n)*sets, Modified) // set 0 is full: evicts
		c.Invalidate((8 + n) * sets)
		c.Insert((8+n)*sets, Exclusive) // refills the gap
	})
	if allocs != 0 {
		t.Fatalf("warm Lookup/Peek/Insert/Invalidate: %v allocs per run, want 0", allocs)
	}
}
