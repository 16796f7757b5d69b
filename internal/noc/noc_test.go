package noc

import (
	"testing"
	"testing/quick"

	"spcoh/internal/arch"
	"spcoh/internal/event"
)

// nodeArgs returns per-destination Broadcast arguments that name their
// destination: args[d] is d.
func nodeArgs(nodes int) []any {
	args := make([]any, nodes)
	for d := range args {
		args[d] = arch.NodeID(d)
	}
	return args
}

func newNet() (*event.Sim, *Network) {
	sim := event.New()
	return sim, New(sim, DefaultConfig())
}

// nodeAt returns the node at mesh coordinates (x, y).
func (n *Network) nodeAt(x, y int) arch.NodeID {
	return arch.NodeID(y*n.cfg.Width + x)
}

// route returns the sequence of directed links a packet traverses from src
// to dst under X-Y (dimension-ordered) routing. Empty for src == dst.
func (n *Network) route(src, dst arch.NodeID) []int {
	var links []int
	x, y := n.xyLegs(src, dst)
	for _, g := range [2]leg{x, y} {
		for i, l := 0, g.node*4+g.dir; i < g.hops; i, l = i+1, l+4*g.step {
			links = append(links, l)
		}
	}
	return links
}

func TestCoordinates(t *testing.T) {
	_, n := newNet()
	if x, y := n.col[0], n.row[0]; x != 0 || y != 0 {
		t.Fatalf("node 0 at %d,%d", x, y)
	}
	if x, y := n.col[5], n.row[5]; x != 1 || y != 1 {
		t.Fatalf("node 5 at %d,%d", x, y)
	}
	if n.nodeAt(3, 3) != 15 {
		t.Fatalf("nodeAt(3,3) = %d", n.nodeAt(3, 3))
	}
	for id := arch.NodeID(0); id < 16; id++ {
		if n.nodeAt(n.col[id], n.row[id]) != id {
			t.Fatalf("coordinate round trip failed for %d", id)
		}
	}
}

func TestHops(t *testing.T) {
	_, n := newNet()
	cases := []struct {
		a, b arch.NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 15, 6}, {5, 10, 2}, {12, 3, 6},
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteLengthAndXYOrder(t *testing.T) {
	_, n := newNet()
	for src := arch.NodeID(0); src < 16; src++ {
		for dst := arch.NodeID(0); dst < 16; dst++ {
			r := n.route(src, dst)
			if len(r) != n.Hops(src, dst) {
				t.Fatalf("route %d->%d has %d links, want %d", src, dst, len(r), n.Hops(src, dst))
			}
		}
	}
	// X-Y routing: 0 -> 10 goes east twice then south twice.
	r := n.route(0, 10)
	want := []int{
		0*4 + dirEast, // node 0 east
		1*4 + dirEast, // node 1 east
		2*4 + dirSouth,
		6*4 + dirSouth,
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("route 0->10 = %v, want %v", r, want)
		}
	}
}

func TestFlits(t *testing.T) {
	for _, fb := range []int{8, 16} {
		for _, hf := range []int{0, 1, 2} {
			cfg := DefaultConfig()
			cfg.FlitBytes, cfg.HeaderFlits = fb, hf
			n := New(event.New(), cfg)
			// Past the lookup table the count is computed; both must agree
			// with counting the payload out flit by flit.
			for p := 0; p <= 200; p++ {
				want := hf
				for left := p; left > 0; left -= fb {
					want++
				}
				want = max(want, 1)
				if got := n.Flits(p); got != want {
					t.Fatalf("FlitBytes %d, HeaderFlits %d: Flits(%d) = %d, want %d", fb, hf, p, got, want)
				}
			}
		}
	}
}

// TestZeroLoadLatency is the closed-form oracle of DESIGN.md §3: on an idle
// mesh a packet of F flits from src to dst, h hops apart, arrives after
//
//	RouterDelay + h·(LinkDelay+RouterDelay) + F·LinkDelay − LinkDelay
//
// cycles (the source router, a link and a router per hop, and the tail
// trailing the head by the last link's serialization), and a local one
// after RouterDelay. It checks every source/destination pair on 4×4, 8×8
// and 3×5 meshes, for Send and for Broadcast to every node, at two
// timings and three payloads. Each packet is injected after the previous
// one has drained, so every link is free and nothing stalls.
func TestZeroLoadLatency(t *testing.T) {
	for _, geom := range [][2]int{{4, 4}, {8, 8}, {3, 5}} {
		for _, timing := range [][2]event.Time{{2, 1}, {1, 3}} {
			cfg := DefaultConfig()
			cfg.Width, cfg.Height = geom[0], geom[1]
			cfg.RouterDelay, cfg.LinkDelay = timing[0], timing[1]
			nodes := cfg.Nodes()
			want := func(src, dst arch.NodeID, flits int) event.Time {
				if src == dst {
					return cfg.RouterDelay
				}
				w := cfg.Width
				hops := event.Time(abs(int(src)%w-int(dst)%w) + abs(int(src)/w-int(dst)/w))
				return cfg.RouterDelay + hops*(cfg.LinkDelay+cfg.RouterDelay) + event.Time(flits)*cfg.LinkDelay - cfg.LinkDelay
			}
			for _, pf := range [][2]int{{0, 1}, {8, 2}, {72, 6}} {
				payload, flits := pf[0], pf[1]
				sim := event.New()
				n := New(sim, cfg)
				for src := arch.NodeID(0); int(src) < nodes; src++ {
					for dst := arch.NodeID(0); int(dst) < nodes; dst++ {
						sent, got := sim.Now(), event.Time(0)
						n.SendFn(src, dst, payload, func(any) { got = sim.Now() - sent }, nil)
						sim.Run()
						if w := want(src, dst, flits); got != w {
							t.Fatalf("%dx%d %v: Send(%d→%d, %dB) took %d cycles, want %d", geom[0], geom[1], timing, src, dst, payload, got, w)
						}
					}
					sent := sim.Now()
					lat := make(map[arch.NodeID]event.Time, nodes)
					n.Broadcast(src, arch.FullSet(nodes), payload, func(a any) { lat[a.(arch.NodeID)] = sim.Now() - sent }, nodeArgs(nodes))
					sim.Run()
					if len(lat) != nodes {
						t.Fatalf("Broadcast from %d reached %d of %d nodes", src, len(lat), nodes)
					}
					for dst := arch.NodeID(0); int(dst) < nodes; dst++ {
						if w := want(src, dst, flits); lat[dst] != w {
							t.Fatalf("%dx%d %v: Broadcast(%d→%d, %dB) took %d cycles, want %d", geom[0], geom[1], timing, src, dst, payload, lat[dst], w)
						}
					}
				}
				if s := n.Stats().StallCycles; s != 0 {
					t.Fatalf("%dx%d: %d stall cycles on an idle mesh", geom[0], geom[1], s)
				}
			}
		}
	}
}

func TestSendLatencyUncontended(t *testing.T) {
	sim, n := newNet()
	var arrived event.Time
	// 0 -> 1: one hop. Control packet (8B payload = 2 flits).
	n.SendFn(0, 1, 8, func(any) { arrived = sim.Now() }, nil)
	sim.Run()
	// router(2) + link(1) + router(2) + tail trailing (ser 2 flits*1 - 1) = 6
	cfg := DefaultConfig()
	ser := event.Time(2) * cfg.LinkDelay
	want := cfg.RouterDelay + cfg.LinkDelay + cfg.RouterDelay + ser - cfg.LinkDelay
	if arrived != want {
		t.Fatalf("arrival = %d, want %d", arrived, want)
	}
}

func TestSendLocal(t *testing.T) {
	sim, n := newNet()
	var arrived event.Time
	n.SendFn(3, 3, 64, func(any) { arrived = sim.Now() }, nil)
	sim.Run()
	if arrived != DefaultConfig().RouterDelay {
		t.Fatalf("local delivery at %d, want %d", arrived, DefaultConfig().RouterDelay)
	}
	if n.Stats().FlitHops != 0 {
		t.Fatal("local delivery should traverse no links")
	}
}

func TestContentionSerializes(t *testing.T) {
	sim, n := newNet()
	var first, second event.Time
	// Two max-size packets on the same link back to back.
	n.SendFn(0, 1, 64, func(any) { first = sim.Now() }, nil)
	n.SendFn(0, 1, 64, func(any) { second = sim.Now() }, nil)
	sim.Run()
	if second <= first {
		t.Fatalf("contended packet arrived at %d, not after %d", second, first)
	}
	if n.Stats().StallCycles == 0 {
		t.Fatal("expected stall cycles under contention")
	}
	// Uncontended paths don't interact.
	sim2, n2 := newNet()
	var a, b event.Time
	n2.SendFn(0, 1, 64, func(any) { a = sim2.Now() }, nil)
	n2.SendFn(4, 5, 64, func(any) { b = sim2.Now() }, nil)
	sim2.Run()
	if a != b {
		t.Fatalf("disjoint paths should have equal latency: %d vs %d", a, b)
	}
}

func TestFartherIsSlower(t *testing.T) {
	sim, n := newNet()
	var near, far event.Time
	n.SendFn(0, 1, 8, func(any) { near = sim.Now() }, nil)
	n.SendFn(0, 15, 8, func(any) { far = sim.Now() }, nil)
	sim.Run()
	if far <= near {
		t.Fatalf("6-hop (%d) should be slower than 1-hop (%d)", far, near)
	}
}

func TestStatsAccounting(t *testing.T) {
	sim, n := newNet()
	n.SendFn(0, 3, 64, func(any) {}, nil) // 3 hops, 5 flits
	sim.Run()
	s := n.Stats()
	if s.FlitHops != 15 {
		t.Fatalf("flit-hops = %d, want 15", s.FlitHops)
	}
	if s.RouterHops != 3 {
		t.Fatalf("router-hops = %d, want 3", s.RouterHops)
	}
	if s.Bytes != 5*16 {
		t.Fatalf("bytes = %d, want 80", s.Bytes)
	}
	if s.TotalLat == 0 {
		t.Fatal("total latency should be positive")
	}
}

// Regression for the broadcast accounting bug: TotalLat accumulates once
// per destination while Packets counts one injection per Broadcast, so a
// mean of TotalLat / Packets over-reports broadcast latency by the fan-out
// factor. The mean must be per-delivery.
func TestBroadcastAvgLatencyIsPerDelivery(t *testing.T) {
	sim, n := newNet()
	dsts := arch.SetOf(1, 5, 15)
	arrivals := make(map[arch.NodeID]event.Time)
	n.Broadcast(0, dsts, 8, func(a any) { arrivals[a.(arch.NodeID)] = sim.Now() }, nodeArgs(16))
	sim.Run()

	s := n.Stats()
	if s.Packets != 1 {
		t.Fatalf("Packets = %d, want 1 (broadcast is one injection)", s.Packets)
	}
	if s.Deliveries != uint64(dsts.Count()) {
		t.Fatalf("Deliveries = %d, want %d", s.Deliveries, dsts.Count())
	}
	var sum uint64
	var farthest event.Time
	dsts.ForEach(func(d arch.NodeID) {
		sum += uint64(arrivals[d])
		if arrivals[d] > farthest {
			farthest = arrivals[d]
		}
	})
	if s.TotalLat != sum {
		t.Fatalf("TotalLat = %d, want per-delivery sum %d", s.TotalLat, sum)
	}
	mean := float64(s.TotalLat) / float64(s.Deliveries)
	// The per-injection mean reports the per-destination sum over one packet.
	if old := float64(sum) / float64(s.Packets); mean >= old {
		t.Fatalf("per-delivery mean %v not below the per-injection value %v", mean, old)
	}
	// Invariant: the mean delivery latency is bounded by the slowest
	// (farthest-destination) delivery on an idle mesh.
	if mean > float64(farthest) {
		t.Fatalf("per-delivery mean %v exceeds farthest delivery %d", mean, farthest)
	}
}

// Invariant: a broadcast to k destinations yields exactly k deliveries and
// k latency samples, for every k.
func TestBroadcastDeliveriesPerDestination(t *testing.T) {
	for k := 1; k <= 15; k++ {
		sim, n := newNet()
		dsts := arch.EmptySet
		for d := 1; d <= k; d++ {
			dsts = dsts.Add(arch.NodeID(d))
		}
		got := 0
		n.Broadcast(0, dsts, 8, func(any) { got++ }, nodeArgs(16))
		sim.Run()
		if got != k {
			t.Fatalf("k=%d: delivered %d times", k, got)
		}
		if s := n.Stats(); s.Deliveries != uint64(k) || s.Packets != 1 {
			t.Fatalf("k=%d: Deliveries = %d, Packets = %d", k, s.Deliveries, s.Packets)
		}
	}
}

// Invariant: Send keeps Deliveries == Packets, including local delivery,
// so source-side replication to k destinations (k Sends, as predicted
// requests go out) is k injections / k deliveries — the documented
// asymmetry with Broadcast.
func TestSendAndMulticastDeliveriesMatchPackets(t *testing.T) {
	sim, n := newNet()
	n.SendFn(0, 1, 8, func(any) {}, nil)
	n.SendFn(3, 3, 64, func(any) {}, nil) // local
	for _, d := range []arch.NodeID{2, 7, 9} {
		n.SendFn(0, d, 8, func(any) {}, nil)
	}
	sim.Run()
	s := n.Stats()
	if s.Packets != 5 || s.Deliveries != 5 {
		t.Fatalf("Packets = %d, Deliveries = %d, want 5 and 5", s.Packets, s.Deliveries)
	}
}

// Invariant: on a contended link, a broadcast leg observes the same stall
// cycles and arrival time as an equivalent unicast Send.
func TestBroadcastStallMatchesSend(t *testing.T) {
	simA, a := newNet()
	a.SendFn(0, 1, 64, func(any) {}, nil) // occupy link 0->1
	var sendArrival event.Time
	a.SendFn(0, 1, 8, func(any) { sendArrival = simA.Now() }, nil)
	simA.Run()
	sendStalls := a.Stats().StallCycles

	simB, b := newNet()
	b.SendFn(0, 1, 64, func(any) {}, nil) // same contention
	var bcastArrival event.Time
	b.Broadcast(0, arch.SetOf(1), 8, func(any) { bcastArrival = simB.Now() }, nodeArgs(16))
	simB.Run()
	bcastStalls := b.Stats().StallCycles

	if sendStalls == 0 {
		t.Fatal("expected stalls on the contended link")
	}
	if bcastStalls != sendStalls {
		t.Fatalf("broadcast stalls = %d, send stalls = %d", bcastStalls, sendStalls)
	}
	if bcastArrival != sendArrival {
		t.Fatalf("broadcast arrival = %d, send arrival = %d", bcastArrival, sendArrival)
	}
}

// Property: latency grows monotonically with hop count on an idle network.
func TestPropertyLatencyMonotoneInDistance(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := arch.NodeID(aRaw % 16)
		b := arch.NodeID(bRaw % 16)
		simA, nA := newNet()
		var tA event.Time
		nA.SendFn(0, a, 8, func(any) { tA = simA.Now() }, nil)
		simA.Run()
		simB, nB := newNet()
		var tB event.Time
		nB.SendFn(0, b, 8, func(any) { tB = simB.Now() }, nil)
		simB.Run()
		if nA.Hops(0, a) < nB.Hops(0, b) {
			return tA < tB
		}
		if nA.Hops(0, a) == nB.Hops(0, b) {
			return tA == tB
		}
		return tA > tB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every route under X-Y routing is minimal and loop-free
// (each directed link appears at most once).
func TestPropertyRoutesLoopFree(t *testing.T) {
	f := func(sRaw, dRaw uint8) bool {
		_, n := newNet()
		src := arch.NodeID(sRaw % 16)
		dst := arch.NodeID(dRaw % 16)
		r := n.route(src, dst)
		seen := make(map[int]bool)
		for _, l := range r {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return len(r) == n.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
