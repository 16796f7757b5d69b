package protocol_test

import (
	"fmt"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/cpu"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/snoop"
)

// tilePort is what the hit-path test drives and inspects on either
// protocol's node: the memory port plus the shared Tile's views.
type tilePort interface {
	cpu.FastPort
	L1() *cache.Cache
	L2() *cache.Cache
	HitStats() protocol.TileStats
}

// tileRig is a 4-tile machine under one protocol with node 0's misses
// observed.
type tileRig struct {
	sim    *event.Sim
	nodes  []tilePort
	misses []predictor.MissKind // node 0's completed misses, in order
}

// The lines of the hit-path test: x is the line accessed, y shares its L2
// set (and L1 set), and z is the third line the recency probe inserts into
// that set.
const (
	lineX arch.LineAddr = 1
	lineY arch.LineAddr = lineX + 4
	lineZ arch.LineAddr = lineX + 8
)

func newTileRig(proto string) *tileRig {
	cfg := protocol.DefaultConfig()
	cfg.Nodes = 4
	cfg.NoC = noc.Config{Width: 2, Height: 2, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16, HeaderFlits: 1}
	cfg.L1 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1} // 4 sets
	cfg.L2 = cache.Config{Bytes: 8 * arch.LineSize, Ways: 2} // 4 sets
	r := &tileRig{sim: event.New()}
	obs := &protocol.Obs{Miss: func(m predictor.Miss, _ predictor.Outcome, _ event.Time, _, _ bool) {
		if m.Node == 0 {
			r.misses = append(r.misses, m.Kind)
		}
	}}
	switch proto {
	case "dir":
		sys := protocol.New(r.sim, cfg, nil)
		sys.SetObserver(obs)
		for _, n := range sys.Nodes {
			r.nodes = append(r.nodes, n)
		}
	case "bcast":
		sys := snoop.New(r.sim, cfg)
		sys.SetObserver(obs)
		for _, n := range sys.Nodes {
			r.nodes = append(r.nodes, n)
		}
	}
	return r
}

// do runs one access by node to completion.
func (r *tileRig) do(t *testing.T, node int, l arch.LineAddr, write bool) {
	t.Helper()
	done := false
	r.nodes[node].Access(0x400, l.Base(), write, func() { done = true })
	r.sim.Run()
	if !done {
		t.Fatalf("setup access by node %d to line %d never completed", node, l)
	}
}

// setup brings node 0 to L1 state l1 (Invalid or Shared) and L2 state l2
// for lineX through coherence transactions, with lineY resident in the
// same L2 set and more recently used than lineX. The final L1 adjustment
// and recency touch act on node 0's arrays directly, which no coherence
// state tracks.
func (r *tileRig) setup(t *testing.T, l1, l2 cache.State) {
	t.Helper()
	r.do(t, 0, lineY, false)
	switch l2 {
	case cache.Exclusive:
		r.do(t, 0, lineX, false)
	case cache.Modified:
		r.do(t, 0, lineX, true)
	case cache.Forward:
		r.do(t, 1, lineX, false)
		r.do(t, 0, lineX, false)
	case cache.Shared:
		r.do(t, 0, lineX, false)
		r.do(t, 1, lineX, false)
	}
	n := r.nodes[0]
	if got := n.L2().Peek(lineX); got != l2 {
		t.Fatalf("setup: L2 holds line x in %v, want %v", got, l2)
	}
	n.L2().Lookup(lineY)
	if l1.Valid() {
		n.L1().Insert(lineX, cache.Shared)
	} else {
		n.L1().Invalidate(lineX)
	}
	r.misses = nil
}

// tileView is node 0's state as the hit path leaves it: lineX's states
// and the tile's hit counters.
type tileView struct {
	l1, l2     cache.State
	hits       protocol.TileStats
	victimOfZ  arch.LineAddr // set by probeRecency
	zDisplaced bool
}

func (r *tileRig) view() tileView {
	n := r.nodes[0]
	return tileView{l1: n.L1().Peek(lineX), l2: n.L2().Peek(lineX), hits: n.HitStats()}
}

// probeRecency inserts lineZ into the L2 set of lineX and lineY and
// records the victim: the set's least recently used line.
func (r *tileRig) probeRecency(v *tileView) {
	victim, evicted := r.nodes[0].L2().Insert(lineZ, cache.Shared)
	v.victimOfZ, v.zDisplaced = victim.Addr, evicted
}

// minus returns the counter deltas from base to v.
func (v tileView) minus(base tileView) tileView {
	d := v
	d.hits = protocol.TileStats{Accesses: v.hits.Accesses - base.hits.Accesses,
		L1Hits: v.hits.L1Hits - base.hits.L1Hits, L2Hits: v.hits.L2Hits - base.hits.L2Hits}
	return d
}

// TestTileHitPath drives one access through every L1 state × L2 state ×
// read/write under both protocols and checks the hit latency or miss kind,
// lineX's resulting states, whether the access made lineX the L2's most
// recently used line and the tile's hit counters, all as the access
// leaves them before the event queue runs. It then replays each access in
// fast mode: a hit through AccessFast alone, and a miss as the fast core
// issues it, a missing AccessFast followed by Access, which must leave the
// states, recency and hit counters of one detailed Access.
func TestTileHitPath(t *testing.T) {
	const (
		l1Lat = event.Time(2)
		l2Lat = l1Lat + 2 + 6 // L1Latency + L2 tag + L2 data
	)
	const (
		I = cache.Invalid
		S = cache.Shared
		E = cache.Exclusive
		M = cache.Modified
		F = cache.Forward
	)
	const (
		read  = predictor.ReadMiss
		write = predictor.WriteMiss
		upg   = predictor.UpgradeMiss
	)
	cases := []struct {
		l1, l2 cache.State
		write  bool

		lat     event.Time         // hit latency; 0 for a miss
		kind    predictor.MissKind // miss kind, for a miss
		l1After cache.State
		l2After cache.State
		touched bool               // the access made lineX the L2's MRU line
		hits    protocol.TileStats // L1Hits and L2Hits deltas
	}{
		// Reads: an L1 hit touches nothing in the L2; an L2 hit refills
		// the L1.
		{I, I, false, 0, read, I, I, false, protocol.TileStats{}},
		{I, S, false, l2Lat, 0, S, S, true, protocol.TileStats{L2Hits: 1}},
		{I, E, false, l2Lat, 0, S, E, true, protocol.TileStats{L2Hits: 1}},
		{I, M, false, l2Lat, 0, S, M, true, protocol.TileStats{L2Hits: 1}},
		{I, F, false, l2Lat, 0, S, F, true, protocol.TileStats{L2Hits: 1}},
		{S, I, false, l1Lat, 0, S, I, false, protocol.TileStats{L1Hits: 1}},
		{S, S, false, l1Lat, 0, S, S, false, protocol.TileStats{L1Hits: 1}},
		{S, E, false, l1Lat, 0, S, E, false, protocol.TileStats{L1Hits: 1}},
		{S, M, false, l1Lat, 0, S, M, false, protocol.TileStats{L1Hits: 1}},
		{S, F, false, l1Lat, 0, S, F, false, protocol.TileStats{L1Hits: 1}},
		// Writes go to the L2 (the L1 is write-through): M and E hit and
		// end in M with the L1 refilled; S and F are upgrade misses whose
		// one lookup touches the line.
		{I, I, true, 0, write, I, I, false, protocol.TileStats{}},
		{I, S, true, 0, upg, I, S, true, protocol.TileStats{}},
		{I, E, true, l2Lat, 0, S, M, true, protocol.TileStats{L2Hits: 1}},
		{I, M, true, l2Lat, 0, S, M, true, protocol.TileStats{L2Hits: 1}},
		{I, F, true, 0, upg, I, F, true, protocol.TileStats{}},
		{S, I, true, 0, write, S, I, false, protocol.TileStats{}},
		{S, S, true, 0, upg, S, S, true, protocol.TileStats{}},
		{S, E, true, l2Lat, 0, S, M, true, protocol.TileStats{L2Hits: 1}},
		{S, M, true, l2Lat, 0, S, M, true, protocol.TileStats{L2Hits: 1}},
		{S, F, true, 0, upg, S, F, true, protocol.TileStats{}},
	}
	for _, proto := range []string{"dir", "bcast"} {
		for _, c := range cases {
			op := "read"
			if c.write {
				op = "write"
			}
			t.Run(fmt.Sprintf("%s/L1=%v/L2=%v/%s", proto, c.l1, c.l2, op), func(t *testing.T) {
				hit := c.lat != 0
				want := tileView{l1: c.l1After, l2: c.l2After,
					hits: protocol.TileStats{Accesses: 1, L1Hits: c.hits.L1Hits, L2Hits: c.hits.L2Hits}}
				check := func(mode string, got tileView) {
					t.Helper()
					if got.l1 != want.l1 || got.l2 != want.l2 {
						t.Errorf("%s: line x in L1 %v, L2 %v; want L1 %v, L2 %v", mode, got.l1, got.l2, want.l1, want.l2)
					}
					if got.hits != want.hits {
						t.Errorf("%s: hit counters %+v, want %+v", mode, got.hits, want.hits)
					}
				}
				checkRecency := func(mode string, v tileView) {
					t.Helper()
					if !c.l2After.Valid() {
						return
					}
					lru := lineX
					if c.touched {
						lru = lineY
					}
					if !v.zDisplaced || v.victimOfZ != lru {
						t.Errorf("%s: L2 victim %d (evicted %v), want LRU line %d", mode, v.victimOfZ, v.zDisplaced, lru)
					}
				}

				// Detailed mode: effects, then completion.
				r := newTileRig(proto)
				r.setup(t, c.l1, c.l2)
				base := r.view()
				start := r.sim.Now()
				var end event.Time
				done := false
				r.nodes[0].Access(0x400, lineX.Base(), c.write, func() { done, end = true, r.sim.Now() })
				check("detailed", r.view().minus(base))
				r.sim.Run()
				switch {
				case !done:
					t.Fatal("detailed access never completed")
				case hit && end-start != c.lat:
					t.Errorf("hit latency %d, want %d", end-start, c.lat)
				case hit && len(r.misses) != 0:
					t.Errorf("hit completed %d misses", len(r.misses))
				case !hit && (len(r.misses) != 1 || r.misses[0] != c.kind):
					t.Errorf("misses %v, want one %v", r.misses, c.kind)
				}

				// Detailed mode: recency as the access leaves it.
				r = newTileRig(proto)
				r.setup(t, c.l1, c.l2)
				r.nodes[0].Access(0x400, lineX.Base(), c.write, func() {})
				var v tileView
				r.probeRecency(&v)
				checkRecency("detailed", v)

				// Fast mode: AccessFast, then Access on a miss.
				r = newTileRig(proto)
				r.setup(t, c.l1, c.l2)
				base = r.view()
				lat, ok := r.nodes[0].AccessFast(0x400, lineX.Base(), c.write)
				if ok != hit || lat != c.lat {
					t.Fatalf("AccessFast = %d, %v; want %d, %v", lat, ok, c.lat, hit)
				}
				if !ok {
					r.nodes[0].Access(0x400, lineX.Base(), c.write, func() {})
				}
				v = r.view().minus(base)
				check("fast", v)
				r.probeRecency(&v)
				checkRecency("fast", v)
			})
		}
	}
}
