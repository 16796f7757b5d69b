package snoop

import (
	"math/rand"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/protocol"
)

// bigConfig is the paper-size 16-node machine with small caches; broadcast
// bandwidth overheads only show at realistic node counts (a 2x2 multicast
// tree is nearly free).
func bigConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.L1 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1}
	cfg.L2 = cache.Config{Bytes: 32 * arch.LineSize, Ways: 2}
	return cfg
}

func testConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.Nodes = 4
	cfg.NoC = noc.Config{Width: 2, Height: 2, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16, HeaderFlits: 1}
	cfg.L1 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1}
	cfg.L2 = cache.Config{Bytes: 32 * arch.LineSize, Ways: 2}
	return cfg
}

func access(t *testing.T, sim *event.Sim, n *Node, addr arch.Addr, write bool) event.Time {
	t.Helper()
	start := sim.Now()
	var end event.Time
	done := false
	n.Access(0, addr, write, func() { done = true; end = sim.Now() })
	sim.Run()
	if !done {
		t.Fatalf("access to %#x never completed", uint64(addr))
	}
	return end - start
}

func TestColdReadUsesMemory(t *testing.T) {
	sim := event.New()
	sys := New(sim, testConfig())
	lat := access(t, sim, sys.Nodes[0], 0x100, false)
	if lat < sys.Cfg.MemLatency {
		t.Fatalf("cold read latency %d < memory %d", lat, sys.Cfg.MemLatency)
	}
	if sys.Stats().NonCommunicating != 1 {
		t.Fatalf("stats = %+v", sys.Stats())
	}
	// Sole copy installs Exclusive.
	if st := sys.Nodes[0].L2().Peek(arch.Addr(0x100).Line()); st != cache.Exclusive {
		t.Fatalf("fill = %v", st)
	}
}

func TestCacheToCacheBeatsMemory(t *testing.T) {
	sim := event.New()
	sys := New(sim, testConfig())
	access(t, sim, sys.Nodes[1], 0x200, true)
	lat := access(t, sim, sys.Nodes[0], 0x200, false)
	if lat >= sys.Cfg.MemLatency {
		t.Fatalf("snoop-supplied read took %d, should beat memory", lat)
	}
	st := sys.Stats()
	if st.Communicating != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// All tiles snooped (energy accounting).
	if st.SnoopLookups < uint64(sys.Cfg.Nodes-1) {
		t.Fatalf("snoop lookups = %d", st.SnoopLookups)
	}
	line := arch.Addr(0x200).Line()
	if st := sys.Nodes[1].L2().Peek(line); st != cache.Shared {
		t.Fatalf("provider state = %v", st)
	}
	if st := sys.Nodes[0].L2().Peek(line); st != cache.Forward {
		t.Fatalf("requester state = %v", st)
	}
}

func TestWriteInvalidatesAll(t *testing.T) {
	sim := event.New()
	sys := New(sim, testConfig())
	for i := 0; i < 3; i++ {
		access(t, sim, sys.Nodes[i], 0x300, false)
	}
	access(t, sim, sys.Nodes[3], 0x300, true)
	line := arch.Addr(0x300).Line()
	for i := 0; i < 3; i++ {
		if sys.Nodes[i].L2().Peek(line).Valid() {
			t.Fatalf("node %d not invalidated", i)
		}
	}
	if st := sys.Nodes[3].L2().Peek(line); st != cache.Modified {
		t.Fatalf("writer = %v", st)
	}
}

func TestUpgradeNeedsNoData(t *testing.T) {
	sim := event.New()
	sys := New(sim, testConfig())
	access(t, sim, sys.Nodes[0], 0x400, false)
	access(t, sim, sys.Nodes[1], 0x400, false)
	lat := access(t, sim, sys.Nodes[0], 0x400, true)
	if lat >= sys.Cfg.MemLatency {
		t.Fatalf("upgrade should not wait for memory: %d", lat)
	}
	if st := sys.Nodes[0].L2().Peek(arch.Addr(0x400).Line()); st != cache.Modified {
		t.Fatalf("upgrader = %v", st)
	}
}

func TestBroadcastBandwidthExceedsDirectory(t *testing.T) {
	run := func(build func(sim *event.Sim) (func(id int, addr arch.Addr, write bool, done func()), func() uint64)) uint64 {
		sim := event.New()
		acc, bytes := build(sim)
		completed := 0
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			id := rng.Intn(16)
			addr := arch.Addr(rng.Intn(16)) * arch.LineSize
			acc(id, addr, rng.Intn(3) == 0, func() { completed++ })
			sim.Run()
		}
		if completed != 200 {
			t.Fatalf("%d/200 completed", completed)
		}
		return bytes()
	}
	snoopBytes := run(func(sim *event.Sim) (func(int, arch.Addr, bool, func()), func() uint64) {
		sys := New(sim, bigConfig())
		return func(id int, a arch.Addr, w bool, d func()) { sys.Nodes[id].Access(0, a, w, d) },
			func() uint64 { return sys.NetStats().Bytes }
	})
	dirBytes := run(func(sim *event.Sim) (func(int, arch.Addr, bool, func()), func() uint64) {
		sys := protocol.New(sim, bigConfig(), nil)
		return func(id int, a arch.Addr, w bool, d func()) { sys.Nodes[id].Access(0, a, w, d) },
			func() uint64 { return sys.NetStats().Bytes }
	})
	if snoopBytes <= dirBytes {
		t.Fatalf("broadcast bytes %d should exceed directory %d", snoopBytes, dirBytes)
	}
}

func TestStressConcurrent(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sim := event.New()
		sys := New(sim, testConfig())
		completed := 0
		total := 0
		for id := range sys.Nodes {
			n := sys.Nodes[id]
			rng := rand.New(rand.NewSource(seed*10 + int64(id)))
			var next func(i int)
			next = func(i int) {
				if i >= 250 {
					return
				}
				total++
				addr := arch.Addr(rng.Intn(12)) * arch.LineSize
				n.Access(0, addr, rng.Intn(3) == 0, func() {
					completed++
					sim.After(event.Time(rng.Intn(5)), func() { next(i + 1) })
				})
			}
			next(0)
		}
		sim.Run()
		if completed != 4*250 {
			t.Fatalf("seed %d: %d/%d completed", seed, completed, 4*250)
		}
		if sys.Outstanding() != 0 {
			t.Fatalf("outstanding arbitration at quiescence: %d", sys.Outstanding())
		}
		// Single-writer invariant: at most one M/E copy per line.
		owners := make(map[arch.LineAddr]int)
		for _, n := range sys.Nodes {
			for i := 0; i < 12; i++ {
				l := arch.LineAddr(i)
				if st := n.L2().Peek(l); st == cache.Modified || st == cache.Exclusive {
					owners[l]++
				}
			}
		}
		for l, c := range owners {
			if c > 1 {
				t.Fatalf("line %#x has %d exclusive owners", uint64(l), c)
			}
		}
	}
}
