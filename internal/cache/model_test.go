package cache

import (
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
	stats Stats
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
			c.stats.Hits++
			return &set[i]
		}
	}
	c.stats.Misses++
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
	c.stats.Evictions++
	if v.State.Dirty() {
		c.stats.Writebacks++
	}
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

// TestDifferentialLRUModel drives the cache and the stamp-LRU reference
// with the same random operation mix and requires identical answers,
// victims, statistics and resident sets. Addresses fall on a few sets only
// (plus large line numbers near the 61-bit limit), so sets fill, evict and
// develop gaps constantly.
func TestDifferentialLRUModel(t *testing.T) {
	states := []State{Shared, Exclusive, Modified, Forward}
	for _, ways := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 40; seed++ {
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
			for op := 0; op < 6000; op++ {
				a := addr()
				switch k := rng.Intn(10); {
				case k < 3:
					if got, want := c.Lookup(a), refState(ref.Lookup(a)); got != want {
						t.Fatalf("ways %d seed %d op %d: Lookup(%#x) = %v, model %v", ways, seed, op, uint64(a), got, want)
					}
				case k < 4:
					if got, want := c.Peek(a), refState(ref.Peek(a)); got != want {
						t.Fatalf("ways %d seed %d op %d: Peek(%#x) = %v, model %v", ways, seed, op, uint64(a), got, want)
					}
				case k < 8:
					st := states[rng.Intn(len(states))]
					v, ev := c.Insert(a, st)
					rv, rev := ref.Insert(a, st)
					if v != rv || ev != rev {
						t.Fatalf("ways %d seed %d op %d: Insert(%#x) = %+v,%v, model %+v,%v", ways, seed, op, uint64(a), v, ev, rv, rev)
					}
				case k < 9:
					st := State(rng.Intn(int(Forward) + 1)) // Invalid included
					if got, want := c.SetState(a, st), ref.SetState(a, st); got != want {
						t.Fatalf("ways %d seed %d op %d: SetState(%#x, %v) = %v, model %v", ways, seed, op, uint64(a), st, got, want)
					}
				default:
					st, ok := c.Invalidate(a)
					rst, rok := ref.Invalidate(a)
					if st != rst || ok != rok {
						t.Fatalf("ways %d seed %d op %d: Invalidate(%#x) = %v,%v, model %v,%v", ways, seed, op, uint64(a), st, ok, rst, rok)
					}
				}
				if c.Stats() != ref.stats {
					t.Fatalf("ways %d seed %d op %d: stats %+v, model %+v", ways, seed, op, c.Stats(), ref.stats)
				}
				// Occupancy is a counter the mutators keep, so it is
				// checked after every op, not only with the resident set.
				if got, want := c.Occupancy(), len(ref.resident()); got != want {
					t.Fatalf("ways %d seed %d op %d: occupancy %d, model %d", ways, seed, op, got, want)
				}
				if op%500 == 499 {
					got, want := sortLines(resident(c)), sortLines(ref.resident())
					if len(got) != len(want) {
						t.Fatalf("ways %d seed %d op %d: %d resident lines, model %d", ways, seed, op, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("ways %d seed %d op %d: resident %+v, model %+v", ways, seed, op, got[i], want[i])
						}
					}
				}
			}
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
			t.Fatal("expected panic inserting a line of 61 bits or more")
		}
	}()
	c.Insert(maxLine, Shared)
}

// TestFootprintPaperL2 bounds what New allocates for the paper's L2 (1 MB,
// 8-way): one 8-byte tag word per way plus the Cache header. TotalAlloc is
// process-wide, so a runtime allocation landing inside one measured window
// would count against New; the smallest of several windows is New's own
// cost.
func TestFootprintPaperL2(t *testing.T) {
	cfg := Config{Bytes: 1 << 20, Ways: 8}
	ways := uint64(cfg.Sets() * cfg.Ways)
	got := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	header := uint64(128)
	if got > 8*ways+header {
		t.Fatalf("New(1MB 8-way) allocated %d B, ceiling %d B (8 B per way for %d ways + %d B header)",
			got, 8*ways+header, ways, header)
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
