// Package noc models the on-chip interconnect: a 2D mesh with wormhole
// switching, deterministic X-Y routing, 2-stage pipelined routers and
// single-cycle links (paper Table 4).
//
// The model is packet-granular: a packet of F flits occupies each link on
// its path for F cycles (serialization), links are occupied in path order,
// and a packet departing onto a busy link waits for the link to drain
// (contention). Router traversal adds a fixed pipeline delay per hop. This
// captures the three quantities the paper's evaluation depends on — per-hop
// latency, serialization bandwidth, and congestion — without simulating
// individual flits or virtual channels.
//
// The injection path is allocation-free in steady state (DESIGN.md §11):
// routes are walked with a stack-resident iterator instead of materialized
// slices, per-destination multicast/broadcast bindings come from a
// freelist, Broadcast's tree state lives in epoch-stamped per-network
// scratch arrays, and SendFn carries a pre-bound callback through the
// event queue without a closure.
package noc

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/event"
)

// Config describes the mesh geometry and timing.
type Config struct {
	Width, Height int        // mesh dimensions (Width*Height nodes)
	RouterDelay   event.Time // pipeline stages per router traversal (cycles)
	LinkDelay     event.Time // wire traversal per hop (cycles)
	FlitBytes     int        // bytes carried per flit
	HeaderFlits   int        // flits of header/routing overhead per packet
}

// DefaultConfig is the paper's 4x4 mesh: 2-stage routers, 1-cycle links,
// 16-byte flits, one header flit.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16, HeaderFlits: 1}
}

// Nodes returns the number of mesh endpoints.
func (c Config) Nodes() int { return c.Width * c.Height }

// Stats aggregates network activity for bandwidth and energy accounting.
//
// Injections and deliveries are distinct quantities: Send and Broadcast
// each count one injection (Packets) however many endpoints receive the
// packet, while Deliveries counts endpoint arrivals. A Broadcast to k
// destinations is therefore 1 injection / k deliveries (the in-network
// tree replicates), whereas Multicast to the same k is k injections / k
// deliveries (source-side replication, one Send per destination). TotalLat
// accumulates per-*delivery* latency, so mean latency must divide by
// Deliveries — dividing by Packets inflates broadcast latency by up to k.
type Stats struct {
	Packets     uint64 // packets injected (one per Send, one per Broadcast)
	Deliveries  uint64 // endpoint arrivals (k per Broadcast to k destinations)
	Bytes       uint64 // payload+header bytes injected (per-packet, not per-hop)
	FlitHops    uint64 // flits × links traversed (energy ∝ this)
	RouterHops  uint64 // packet × routers traversed
	TotalLat    uint64 // accumulated per-delivery latencies (cycles)
	StallCycles uint64 // cycles packets spent waiting on busy links
}

// AvgLatency returns the mean per-delivery latency: TotalLat accumulates
// once per endpoint arrival, so the divisor is Deliveries, not Packets
// (they differ exactly for Broadcast; see the Stats comment).
func (s *Stats) AvgLatency() float64 {
	if s.Deliveries == 0 {
		return 0
	}
	return float64(s.TotalLat) / float64(s.Deliveries)
}

// Observer carries the NoC hooks of the run-time metrics layer
// (internal/metrics). All hooks fire synchronously inside the
// simulation; a nil observer (the default) costs one predictable branch
// per packet.
type Observer interface {
	// LinkBusy reports that directed link l is occupied for [from, to).
	LinkBusy(l int, from, to event.Time)
	// LinkStall reports a packet stalling for the given cycles waiting on
	// busy link l.
	LinkStall(l int, cycles event.Time)
	// Deliver fires at each endpoint delivery with the delivery latency.
	// The simulator clock reads the arrival cycle.
	Deliver(lat event.Time)
}

// nodeCb is a pooled per-destination delivery binding for Multicast and
// Broadcast: deliverNode unpacks it, returns it to the network's freelist,
// and invokes fn(d) — so fanning out to k endpoints allocates nothing in
// steady state.
//
//spcoh:pooled
type nodeCb struct {
	net *Network
	fn  func(arch.NodeID)
	d   arch.NodeID
}

//spcoh:noalloc
func deliverNode(a any) {
	c := a.(*nodeCb)
	net, fn, d := c.net, c.fn, c.d
	net.putNodeCb(c)
	fn(d)
}

// Network is a mesh instance bound to a simulator clock.
type Network struct {
	cfg Config
	sim *event.Sim
	// busyUntil[l] is the cycle at which directed link l becomes free.
	busyUntil []event.Time
	stats     Stats
	obs       Observer

	// bcHead/bcStamp replace Broadcast's former per-call map: bcHead[l] is
	// the head-flit time after tree link l, valid iff bcStamp[l] == bcEpoch
	// (stamping avoids clearing the scratch between broadcasts).
	bcHead  []event.Time
	bcStamp []uint64
	bcEpoch uint64

	// cbPool is the nodeCb freelist.
	cbPool []*nodeCb
}

// New builds a network over the given simulator.
func New(sim *event.Sim, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: non-positive mesh dimensions")
	}
	if cfg.Nodes() > arch.MaxNodes {
		panic(fmt.Sprintf("noc: %d nodes exceeds arch.MaxNodes", cfg.Nodes()))
	}
	// 4 directed links per node (N,E,S,W); edge links exist but are unused.
	links := cfg.Nodes() * 4
	return &Network{
		cfg: cfg, sim: sim,
		busyUntil: make([]event.Time, links),
		bcHead:    make([]event.Time, links),
		bcStamp:   make([]uint64, links),
	}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetObserver attaches (or, with nil, detaches) the metrics hooks.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// NumLinks returns the number of directed links the mesh addresses
// (4 per node; edge links exist but carry no traffic).
func (n *Network) NumLinks() int { return len(n.busyUntil) }

// XY returns the mesh coordinates of a node.
func (n *Network) XY(id arch.NodeID) (x, y int) {
	return int(id) % n.cfg.Width, int(id) / n.cfg.Width
}

// NodeAt returns the node at mesh coordinates (x, y).
func (n *Network) NodeAt(x, y int) arch.NodeID {
	return arch.NodeID(y*n.cfg.Width + x)
}

// Hops returns the Manhattan distance between two nodes.
func (n *Network) Hops(a, b arch.NodeID) int {
	ax, ay := n.XY(a)
	bx, by := n.XY(b)
	return abs(ax-bx) + abs(ay-by)
}

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// linkIndex identifies the directed link leaving node id in direction dir.
func (n *Network) linkIndex(id arch.NodeID, dir int) int { return int(id)*4 + dir }

// routeIter walks the X-Y route from src to dst one directed link at a
// time. It is a plain value (no backing slice), so hot paths walk routes
// without allocating; Route materializes a slice for tests and debugging.
type routeIter struct {
	n      *Network
	x, y   int // current coordinates
	dx, dy int // destination coordinates
	cur    arch.NodeID
}

func (n *Network) routeFrom(src, dst arch.NodeID) routeIter {
	x, y := n.XY(src)
	dx, dy := n.XY(dst)
	return routeIter{n: n, x: x, y: y, dx: dx, dy: dy, cur: src}
}

// next returns the next directed link on the route, or ok=false at dst.
func (it *routeIter) next() (link int, ok bool) {
	n := it.n
	if it.x != it.dx {
		var dir int
		if it.x < it.dx {
			dir, it.x = dirEast, it.x+1
		} else {
			dir, it.x = dirWest, it.x-1
		}
		link = n.linkIndex(it.cur, dir)
		it.cur = n.NodeAt(it.x, it.y)
		return link, true
	}
	if it.y != it.dy {
		var dir int
		if it.y < it.dy {
			dir, it.y = dirSouth, it.y+1
		} else {
			dir, it.y = dirNorth, it.y-1
		}
		link = n.linkIndex(it.cur, dir)
		it.cur = n.NodeAt(it.x, it.y)
		return link, true
	}
	return 0, false
}

// Route returns the sequence of directed links a packet traverses from src
// to dst under X-Y (dimension-ordered) routing. Empty for src == dst.
func (n *Network) Route(src, dst arch.NodeID) []int {
	if src == dst {
		return nil
	}
	links := make([]int, 0, n.Hops(src, dst))
	it := n.routeFrom(src, dst)
	for l, ok := it.next(); ok; l, ok = it.next() {
		links = append(links, l)
	}
	return links
}

// Flits returns the number of flits (header + payload) for a payload of the
// given byte size.
func (n *Network) Flits(payloadBytes int) int {
	f := n.cfg.HeaderFlits
	f += (payloadBytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// occupyLink claims directed link l for a packet whose head flit reaches it
// at head, serializing for ser cycles, accounting stall and occupancy, and
// returns the head-flit time after the link's wire and the next router.
//
//spcoh:noalloc
func (n *Network) occupyLink(l int, head, ser event.Time) event.Time {
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
	return head + n.cfg.LinkDelay + n.cfg.RouterDelay // head flit: wire + next router
}

// deliverAt accounts one endpoint delivery of latency lat and schedules the
// delivery — exactly one of fn (closure form) or pfn(arg) (pre-bound form)
// — at the arrival cycle. The pre-bound form goes through the event queue
// with no allocation; the observer path wraps in a closure, a cost only
// instrumented runs pay.
//
//spcoh:noalloc
func (n *Network) deliverAt(arrival, lat event.Time, fn func(), pfn event.ArgFunc, arg any) {
	n.stats.Deliveries++
	n.stats.TotalLat += uint64(lat)
	if n.obs != nil {
		obs := n.obs
		if pfn != nil {
			n.sim.At(arrival, func() { obs.Deliver(lat); pfn(arg) }) //spvet:allow noalloc -- observer wrap: a cost only instrumented runs pay
		} else {
			n.sim.At(arrival, func() { obs.Deliver(lat); fn() }) //spvet:allow noalloc -- observer wrap: a cost only instrumented runs pay
		}
		return
	}
	if pfn != nil {
		n.sim.AtFn(arrival, pfn, arg)
		return
	}
	n.sim.At(arrival, fn)
}

// Send injects a packet of payloadBytes from src to dst and schedules
// deliver at the arrival time. Local delivery (src == dst) costs a fixed
// router traversal. Send accounts all bandwidth/energy statistics.
//
//spcoh:noalloc
func (n *Network) Send(src, dst arch.NodeID, payloadBytes int, deliver func()) {
	n.send(src, dst, payloadBytes, deliver, nil, nil)
}

// SendFn is Send with a pre-bound delivery callback: fn(arg) runs at the
// arrival time. With a pointer-shaped arg the injection allocates nothing.
//
//spcoh:noalloc
func (n *Network) SendFn(src, dst arch.NodeID, payloadBytes int, fn event.ArgFunc, arg any) {
	n.send(src, dst, payloadBytes, nil, fn, arg)
}

//spcoh:noalloc
func (n *Network) send(src, dst arch.NodeID, payloadBytes int, deliver func(), pfn event.ArgFunc, arg any) {
	now := n.sim.Now()
	flits := n.Flits(payloadBytes)
	bytes := uint64(flits * n.cfg.FlitBytes)
	n.stats.Packets++
	n.stats.Bytes += bytes

	if src == dst {
		n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, deliver, pfn, arg)
		return
	}

	// Head-flit time advances hop by hop; each link is held for the packet's
	// serialization time starting when the head flit enters it.
	head := now + n.cfg.RouterDelay // source router/injection
	ser := event.Time(flits) * n.cfg.LinkDelay
	it := n.routeFrom(src, dst)
	for l, ok := it.next(); ok; l, ok = it.next() {
		head = n.occupyLink(l, head, ser)
		n.stats.FlitHops += uint64(flits)
		n.stats.RouterHops++
	}
	// Tail flit trails the head by the serialization time of the last link.
	arrival := head + ser - n.cfg.LinkDelay
	if arrival < head {
		arrival = head
	}
	n.deliverAt(arrival, arrival-now, deliver, pfn, arg)
}

func (n *Network) getNodeCb(fn func(arch.NodeID), d arch.NodeID) *nodeCb {
	if k := len(n.cbPool); k > 0 {
		c := n.cbPool[k-1]
		n.cbPool = n.cbPool[:k-1]
		c.fn, c.d = fn, d
		return c
	}
	return &nodeCb{net: n, fn: fn, d: d}
}

func (n *Network) putNodeCb(c *nodeCb) {
	c.fn = nil
	n.cbPool = append(n.cbPool, c)
}

// Multicast sends an identical packet to every member of dsts, invoking
// deliver(node) at each arrival. Replication happens at the source (no
// in-network multicast trees), matching the paper's multicast cost model
// for *predicted* requests, which target a handful of nodes.
//
//spcoh:noalloc
func (n *Network) Multicast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, deliver func(arch.NodeID)) {
	dsts.ForEach(func(d arch.NodeID) { //spvet:allow noalloc -- inlined getNodeCb: cold-path freelist refill
		n.send(src, d, payloadBytes, nil, deliverNode, n.getNodeCb(deliver, d))
	})
}

// Broadcast delivers a packet to every member of dsts along an in-network
// multicast tree: the union of the X-Y routes, with each tree link carrying
// the packet exactly once. This models the replicating, totally-ordered
// fabric the paper assumes for its snooping comparison (§5.1); source-side
// replication would serialize 15 packets through one injection port and
// unfairly penalize broadcast.
//
//spcoh:noalloc
func (n *Network) Broadcast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, deliver func(arch.NodeID)) {
	now := n.sim.Now()
	flits := n.Flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	n.bcEpoch++
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	dsts.ForEach(func(d arch.NodeID) { //spvet:allow noalloc -- inlined getNodeCb: cold-path freelist refill
		if d == src {
			// Loopback is a delivery like any other: it costs the local
			// router traversal and is counted in Deliveries/TotalLat
			// (mirroring Send's src == dst path).
			n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, nil, deliverNode, n.getNodeCb(deliver, d))
			return
		}
		head := now + n.cfg.RouterDelay
		it := n.routeFrom(src, d)
		for l, ok := it.next(); ok; l, ok = it.next() {
			if n.bcStamp[l] == n.bcEpoch {
				head = n.bcHead[l] // link already carries the packet for this subtree
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
		n.deliverAt(arrival, arrival-now, nil, deliverNode, n.getNodeCb(deliver, d))
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
