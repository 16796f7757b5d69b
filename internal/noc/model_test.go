package noc

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
)

// refNet is the reference model for the differential test below: the
// network as it was before routes came from coordinate tables, kept
// verbatim in its essentials. Routes are walked one link at a time with
// division-based coordinates (refIter), and Broadcast walks every
// destination's X-Y route in ascending order, skipping tree links already
// stamped with the current broadcast's epoch.
type refNet struct {
	cfg       Config
	sim       *event.Sim
	busyUntil []event.Time
	stats     Stats
	obs       Observer
	bcHead    []event.Time
	bcStamp   []uint64
	bcEpoch   uint64
}

func newRefNet(sim *event.Sim, cfg Config) *refNet {
	links := cfg.Nodes() * 4
	return &refNet{cfg: cfg, sim: sim, busyUntil: make([]event.Time, links),
		bcHead: make([]event.Time, links), bcStamp: make([]uint64, links)}
}

func (n *refNet) xy(id arch.NodeID) (x, y int) {
	return int(id) % n.cfg.Width, int(id) / n.cfg.Width
}

func (n *refNet) nodeAt(x, y int) arch.NodeID { return arch.NodeID(y*n.cfg.Width + x) }

func (n *refNet) hops(a, b arch.NodeID) int {
	ax, ay := n.xy(a)
	bx, by := n.xy(b)
	return abs(ax-bx) + abs(ay-by)
}

type refIter struct {
	n      *refNet
	x, y   int
	dx, dy int
	cur    arch.NodeID
}

func (n *refNet) routeFrom(src, dst arch.NodeID) refIter {
	x, y := n.xy(src)
	dx, dy := n.xy(dst)
	return refIter{n: n, x: x, y: y, dx: dx, dy: dy, cur: src}
}

func (it *refIter) next() (link int, ok bool) {
	n := it.n
	if it.x != it.dx {
		var dir int
		if it.x < it.dx {
			dir, it.x = dirEast, it.x+1
		} else {
			dir, it.x = dirWest, it.x-1
		}
		link = int(it.cur)*4 + dir
		it.cur = n.nodeAt(it.x, it.y)
		return link, true
	}
	if it.y != it.dy {
		var dir int
		if it.y < it.dy {
			dir, it.y = dirSouth, it.y+1
		} else {
			dir, it.y = dirNorth, it.y-1
		}
		link = int(it.cur)*4 + dir
		it.cur = n.nodeAt(it.x, it.y)
		return link, true
	}
	return 0, false
}

func (n *refNet) route(src, dst arch.NodeID) []int {
	var links []int
	it := n.routeFrom(src, dst)
	for l, ok := it.next(); ok; l, ok = it.next() {
		links = append(links, l)
	}
	return links
}

func (n *refNet) flits(payloadBytes int) int {
	return max(1, n.cfg.HeaderFlits+(payloadBytes+n.cfg.FlitBytes-1)/n.cfg.FlitBytes)
}

func (n *refNet) occupyLink(l int, head, ser event.Time) event.Time {
	if n.busyUntil[l] > head {
		stall := n.busyUntil[l] - head
		n.stats.StallCycles += uint64(stall)
		if n.obs != nil {
			n.obs.LinkStall(l, stall)
		}
		head = n.busyUntil[l]
	}
	n.busyUntil[l] = head + ser
	if n.obs != nil {
		n.obs.LinkBusy(l, head, head+ser)
	}
	return head + n.cfg.LinkDelay + n.cfg.RouterDelay
}

func (n *refNet) deliverAt(arrival, lat event.Time, fn func()) {
	n.stats.Deliveries++
	n.stats.TotalLat += uint64(lat)
	if n.obs != nil {
		obs := n.obs
		n.sim.At(arrival, func() { obs.Deliver(lat); fn() })
		return
	}
	n.sim.At(arrival, fn)
}

func (n *refNet) send(src, dst arch.NodeID, payloadBytes int, deliver func()) {
	now := n.sim.Now()
	flits := n.flits(payloadBytes)
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	if src == dst {
		n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, deliver)
		return
	}
	head := now + n.cfg.RouterDelay
	ser := event.Time(flits) * n.cfg.LinkDelay
	it := n.routeFrom(src, dst)
	for l, ok := it.next(); ok; l, ok = it.next() {
		head = n.occupyLink(l, head, ser)
		n.stats.FlitHops += uint64(flits)
		n.stats.RouterHops++
	}
	arrival := head + ser - n.cfg.LinkDelay
	if arrival < head {
		arrival = head
	}
	n.deliverAt(arrival, arrival-now, deliver)
}

func (n *refNet) broadcast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, deliver func(arch.NodeID)) {
	now := n.sim.Now()
	flits := n.flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	n.bcEpoch++
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	dsts.ForEach(func(d arch.NodeID) {
		if d == src {
			n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, func() { deliver(d) })
			return
		}
		head := now + n.cfg.RouterDelay
		it := n.routeFrom(src, d)
		for l, ok := it.next(); ok; l, ok = it.next() {
			if n.bcStamp[l] == n.bcEpoch {
				head = n.bcHead[l]
				continue
			}
			head = n.occupyLink(l, head, ser)
			n.bcHead[l] = head
			n.bcStamp[l] = n.bcEpoch
			n.stats.FlitHops += uint64(flits)
			n.stats.RouterHops++
		}
		arrival := head + ser - n.cfg.LinkDelay
		if arrival < head {
			arrival = head
		}
		n.deliverAt(arrival, arrival-now, func() { deliver(d) })
	})
}

func (n *refNet) fastBroadcast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, deliver func(d arch.NodeID, lat event.Time)) {
	flits := n.flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	n.bcEpoch++
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	dsts.ForEach(func(d arch.NodeID) {
		var lat event.Time
		if d == src {
			lat = n.cfg.RouterDelay
		} else {
			head := n.cfg.RouterDelay
			it := n.routeFrom(src, d)
			for l, ok := it.next(); ok; l, ok = it.next() {
				if n.bcStamp[l] != n.bcEpoch {
					n.bcStamp[l] = n.bcEpoch
					n.stats.FlitHops += uint64(flits)
					n.stats.RouterHops++
				}
				head += n.cfg.LinkDelay + n.cfg.RouterDelay
			}
			lat = head + ser - n.cfg.LinkDelay
		}
		n.stats.Deliveries++
		n.stats.TotalLat += uint64(lat)
		if n.obs != nil {
			n.obs.Deliver(lat)
		}
		deliver(d, lat)
	})
}

func (n *refNet) fastSend(src, dst arch.NodeID, payloadBytes int) event.Time {
	flits := n.flits(payloadBytes)
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	lat := n.cfg.RouterDelay
	if src != dst {
		h := n.hops(src, dst)
		n.stats.FlitHops += uint64(flits * h)
		n.stats.RouterHops += uint64(h)
		ser := event.Time(flits) * n.cfg.LinkDelay
		lat += event.Time(h)*(n.cfg.LinkDelay+n.cfg.RouterDelay) + ser - n.cfg.LinkDelay
	}
	n.stats.Deliveries++
	n.stats.TotalLat += uint64(lat)
	if n.obs != nil {
		n.obs.Deliver(lat)
	}
	return lat
}

// linkObs records, for each link, the ordered sequence of observer calls
// on it with their arguments. The order across links within one broadcast
// differs from the reference's (it walks the tree, the reference each
// destination's route), but on any one link every call must match.
type linkObs struct {
	calls map[int][]linkCall
	lats  []event.Time
}

// linkCall is one LinkStall (stall true, cycles in a) or LinkBusy ([a, b)).
type linkCall struct {
	stall bool
	a, b  event.Time
}

func newLinkObs() *linkObs { return &linkObs{calls: map[int][]linkCall{}} }

func (o *linkObs) LinkBusy(l int, from, to event.Time) {
	o.calls[l] = append(o.calls[l], linkCall{false, from, to})
}
func (o *linkObs) LinkStall(l int, cycles event.Time) {
	o.calls[l] = append(o.calls[l], linkCall{true, cycles, 0})
}
func (o *linkObs) Deliver(lat event.Time) { o.lats = append(o.lats, lat) }

// delivery is one endpoint arrival: the node and the cycle (or, for
// FastBroadcast, the latency) it arrived at, tagged with its operation.
type delivery struct {
	op   int
	node arch.NodeID
	at   event.Time
}

// randDsts draws a destination set of one of the shapes the test covers:
// empty, a single node, a random subset that contains src, a random
// subset, or the full set.
func randDsts(rng *rand.Rand, nodes int, src arch.NodeID) arch.SharerSet {
	switch rng.Intn(6) {
	case 0:
		return arch.EmptySet
	case 1:
		return arch.SetOf(arch.NodeID(rng.Intn(nodes)))
	case 2:
		return arch.FullSet(nodes)
	case 3:
		return arch.FullSet(nodes).Remove(src)
	}
	s := arch.EmptySet
	p := rng.Float64()
	for i := 0; i < nodes; i++ {
		if rng.Float64() < p {
			s = s.Add(arch.NodeID(i))
		}
	}
	if rng.Intn(2) == 0 {
		s = s.Add(src)
	}
	return s
}

// runTo fires the events due by limit and parks the clock there: a
// sentinel event at limit stops the Step loop.
func runTo(s *event.Sim, limit event.Time) {
	stop := false
	s.At(limit, func() { stop = true })
	for !stop && s.Step() {
	}
}

// TestDifferentialNetworkModel drives the table-driven network and the
// reference model through identical random Send / Broadcast /
// FastBroadcast / FastSend sequences on 1×N, N×1, non-square, 4×4 and
// 16×16 meshes, from randomly pre-loaded link occupancy, and requires
// identical link occupancy and Stats after every operation, identical
// (operation, node, cycle) delivery sequences, identical per-link
// sequences of observer calls and arguments, and identical routes,
// coordinates and hop counts.
func TestDifferentialNetworkModel(t *testing.T) {
	geoms := [][2]int{{1, 7}, {9, 1}, {3, 5}, {5, 2}, {4, 4}, {16, 16}}
	for seed := int64(1); seed <= 24; seed++ {
		geom := geoms[int(seed)%len(geoms)]
		t.Run(fmt.Sprintf("seed%d/%dx%d", seed, geom[0], geom[1]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.Width, cfg.Height = geom[0], geom[1]
			if seed%3 == 0 {
				cfg.RouterDelay, cfg.LinkDelay, cfg.FlitBytes = 1, 2, 8
			}
			nodes := cfg.Nodes()

			simN, simR := event.New(), event.New()
			net, ref := New(simN, cfg), newRefNet(simR, cfg)
			args := nodeArgs(nodes)
			obsN, obsR := newLinkObs(), newLinkObs()
			if seed%2 == 0 {
				net.SetObserver(obsN)
				ref.obs = obsR
			}
			for l := range net.busyUntil {
				b := event.Time(rng.Intn(40))
				net.busyUntil[l], ref.busyUntil[l] = b, b
			}
			for a := arch.NodeID(0); int(a) < nodes; a++ {
				x, y := net.col[a], net.row[a]
				if rx, ry := ref.xy(a); x != rx || y != ry {
					t.Fatalf("node %d at %d,%d, want %d,%d", a, x, y, rx, ry)
				}
				for b := arch.NodeID(0); int(b) < nodes; b += arch.NodeID(1 + nodes/16) {
					if got, want := net.Hops(a, b), ref.hops(a, b); got != want {
						t.Fatalf("Hops(%d,%d) = %d, want %d", a, b, got, want)
					}
					if got, want := net.route(a, b), ref.route(a, b); !slices.Equal(got, want) {
						t.Fatalf("route(%d,%d) = %v, want %v", a, b, got, want)
					}
				}
			}

			var gotD, wantD, gotF, wantF []delivery
			for op := 0; op < 400; op++ {
				src := arch.NodeID(rng.Intn(nodes))
				payload := []int{0, 8, 64}[rng.Intn(3)]
				switch k := rng.Intn(8); {
				case k < 3:
					dst := arch.NodeID(rng.Intn(nodes))
					if k == 0 {
						dst = src
					}
					net.SendFn(src, dst, payload, func(any) { gotD = append(gotD, delivery{op, dst, simN.Now()}) }, nil)
					ref.send(src, dst, payload, func() { wantD = append(wantD, delivery{op, dst, simR.Now()}) })
				case k < 6:
					dsts := randDsts(rng, nodes, src)
					net.Broadcast(src, dsts, payload, func(a any) {
						gotD = append(gotD, delivery{op, a.(arch.NodeID), simN.Now()})
					}, args)
					ref.broadcast(src, dsts, payload, func(d arch.NodeID) {
						wantD = append(wantD, delivery{op, d, simR.Now()})
					})
				case k == 6:
					dsts := randDsts(rng, nodes, src)
					net.FastBroadcast(src, dsts, payload, func(d arch.NodeID, lat event.Time) {
						gotF = append(gotF, delivery{op, d, lat})
					})
					ref.fastBroadcast(src, dsts, payload, func(d arch.NodeID, lat event.Time) {
						wantF = append(wantF, delivery{op, d, lat})
					})
				default:
					dst := arch.NodeID(rng.Intn(nodes))
					gotF = append(gotF, delivery{op, dst, net.FastSend(src, dst, payload)})
					wantF = append(wantF, delivery{op, dst, ref.fastSend(src, dst, payload)})
				}
				if !slices.Equal(net.busyUntil, ref.busyUntil) {
					t.Fatalf("op %d: busyUntil diverged", op)
				}
				if net.Stats() != ref.stats {
					t.Fatalf("op %d: Stats %+v, want %+v", op, net.Stats(), ref.stats)
				}
				if rng.Intn(3) == 0 {
					limit := simN.Now() + event.Time(rng.Intn(30))
					runTo(simN, limit)
					runTo(simR, limit)
				}
			}
			simN.Run()
			simR.Run()
			if !slices.Equal(gotD, wantD) {
				t.Fatalf("deliveries diverged:\n got %v\nwant %v", gotD, wantD)
			}
			if !slices.Equal(gotF, wantF) {
				t.Fatalf("fast deliveries diverged:\n got %v\nwant %v", gotF, wantF)
			}
			if len(wantD) == 0 || len(wantF) == 0 {
				t.Fatalf("degenerate run: %d deliveries, %d fast deliveries", len(wantD), len(wantF))
			}
			if !maps.EqualFunc(obsN.calls, obsR.calls, slices.Equal) || !slices.Equal(obsN.lats, obsR.lats) {
				t.Fatal("observer calls diverged")
			}
			if seed%2 == 0 && len(obsR.calls) == 0 {
				t.Fatal("degenerate run: no observer calls")
			}
		})
	}
}
