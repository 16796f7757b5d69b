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
// Routes are walked from per-node coordinate tables: an X-Y route is an X
// leg and a Y leg, each a run of directed links at a fixed index stride (±4
// per hop east or west, ±4·Width per hop south or north), so no hop divides
// or looks a node up. SendFn and Broadcast reserve every leg with one hop
// loop (walk) that makes no calls; when a metrics observer is attached, a
// separate replay (observe) reports the leg's links afterwards from the
// reservations walk left behind. Broadcast builds its tree in one pass from
// the destinations' extents (treeExtent) and walks each tree link once.
// Flit counts come from a per-network table (Flits), so no packet divides.
//
// The injection path is allocation-free in steady state (DESIGN.md §11):
// Broadcast's tree state lives in per-network scratch arrays, and SendFn
// and Broadcast carry pre-bound callbacks through the event queue without
// a closure. Broadcast keeps no per-destination state of its own: the
// caller passes one argument per destination (snoop's transaction records
// hold them), so the network needs no freelist.
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
// Injections and deliveries are distinct quantities: SendFn and Broadcast
// each count one injection (Packets) however many endpoints receive the
// packet, while Deliveries counts endpoint arrivals. A Broadcast to k
// destinations is therefore 1 injection / k deliveries (the in-network
// tree replicates), whereas k SendFn calls to the same destinations are k
// injections / k deliveries (source-side replication, as the directory
// protocol sends predicted requests). TotalLat accumulates per-*delivery*
// latency, so mean latency must divide by Deliveries — dividing by Packets
// inflates broadcast latency by up to k.
type Stats struct {
	Packets     uint64 // packets injected (one per SendFn, one per Broadcast)
	Deliveries  uint64 // endpoint arrivals (k per Broadcast to k destinations)
	Bytes       uint64 // payload+header bytes injected (per-packet, not per-hop)
	FlitHops    uint64 // flits × links traversed (energy ∝ this)
	RouterHops  uint64 // packet × routers traversed
	TotalLat    uint64 // accumulated per-delivery latencies (cycles)
	StallCycles uint64 // cycles packets spent waiting on busy links
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

// Network is a mesh instance bound to a simulator clock.
type Network struct {
	cfg Config
	sim *event.Sim
	// busyUntil[l] is the cycle at which directed link l becomes free.
	busyUntil []event.Time
	stats     Stats
	obs       Observer

	// col[id] and row[id] are node id's mesh coordinates.
	col, row []int

	// flits[p] is Flits(p) for every payload size p below len(flits).
	flits []int

	// Scratch, rewritten by every packet: headAt[id] is the current
	// packet's head-flit time at node id (walk), and colLo[x]/colHi[x]
	// are the row span a broadcast tree covers in column x (treeExtent).
	headAt       []event.Time
	colLo, colHi []int
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
	nodes := cfg.Nodes()
	n := &Network{
		cfg: cfg, sim: sim,
		busyUntil: make([]event.Time, nodes*4),
		col:       make([]int, nodes),
		row:       make([]int, nodes),
		headAt:    make([]event.Time, nodes),
		colLo:     make([]int, cfg.Width),
		colHi:     make([]int, cfg.Width),
		flits:     make([]int, flitTable),
	}
	for id := range nodes {
		n.col[id], n.row[id] = id%cfg.Width, id/cfg.Width
	}
	for p := range n.flits {
		n.flits[p] = cfg.flits(p)
	}
	return n
}

// flitTable is the number of payload sizes Flits looks up rather than
// computes: every message the protocols send (8 and 72 bytes) is below it.
const flitTable = 128

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetObserver attaches (or, with nil, detaches) the metrics hooks.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// NumLinks returns the number of directed links the mesh addresses
// (4 per node; edge links exist but carry no traffic).
func (n *Network) NumLinks() int { return len(n.busyUntil) }

// Hops returns the Manhattan distance between two nodes.
func (n *Network) Hops(a, b arch.NodeID) int {
	return abs(n.col[a]-n.col[b]) + abs(n.row[a]-n.row[b])
}

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// leg is a straight run of hops directed links: the first leaves node in
// direction dir, and each next one leaves the node step indices further
// on (±1 east or west, ±Width south or north), i.e. 4·step link indices.
type leg struct{ node, dir, step, hops int }

// xyLegs returns the X leg, then the Y leg, of the X-Y route from src to
// dst. A leg with no hops is empty. It does not branch: the sign mask of
// each displacement (0 east or south, −1 west or north) picks the
// direction (dirWest is dirEast+1, dirNorth is dirSouth−1), the step's
// sign and the hop count's absolute value.
func (n *Network) xyLegs(src, dst arch.NodeID) (leg, leg) {
	dx, dy := n.col[dst]-n.col[src], n.row[dst]-n.row[src]
	mx, my := dx>>63, dy>>63
	return leg{int(src), dirEast - mx, mx | 1, (dx ^ mx) - mx},
		leg{int(src) + dx, dirSouth + my, (n.cfg.Width ^ my) - my, (dy ^ my) - my}
}

// Flits returns the number of flits (header + payload) for a payload of the
// given byte size. Sizes below flitTable are looked up in the table New
// builds, so the packet path does not divide.
func (n *Network) Flits(payloadBytes int) int {
	if uint(payloadBytes) < uint(len(n.flits)) {
		return n.flits[payloadBytes]
	}
	return n.cfg.flits(payloadBytes)
}

// flits computes the flit count of a payload: the header flits plus the
// payload rounded up to whole flits, and at least one.
func (c Config) flits(payloadBytes int) int {
	return max(1, c.HeaderFlits+(payloadBytes+c.FlitBytes-1)/c.FlitBytes)
}

// deliverAt accounts one endpoint delivery of latency lat and schedules
// fn(arg) at the arrival cycle, through the event queue with no
// allocation; the observer path wraps in a closure, a cost only
// instrumented runs pay.
//
//spcoh:noalloc
func (n *Network) deliverAt(arrival, lat event.Time, fn event.ArgFunc, arg any) {
	n.stats.Deliveries++
	n.stats.TotalLat += uint64(lat)
	if n.obs != nil {
		obs := n.obs
		n.sim.At(arrival, func() { obs.Deliver(lat); fn(arg) }) //spvet:allow noalloc -- observer wrap: a cost only instrumented runs pay
		return
	}
	n.sim.AtFn(arrival, fn, arg)
}

// SendFn injects a packet of payloadBytes from src to dst and runs fn(arg)
// at the arrival time; with a pointer-shaped arg the injection allocates
// nothing. Local delivery (src == dst) costs a fixed router traversal.
// SendFn accounts all bandwidth/energy statistics.
//
//spcoh:noalloc
func (n *Network) SendFn(src, dst arch.NodeID, payloadBytes int, fn event.ArgFunc, arg any) {
	now := n.sim.Now()
	flits := n.Flits(payloadBytes)
	bytes := uint64(flits * n.cfg.FlitBytes)
	n.stats.Packets++
	n.stats.Bytes += bytes

	if src == dst {
		n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, fn, arg)
		return
	}

	// Head-flit time advances hop by hop from the source router; each link
	// is held for the packet's serialization time starting when the head
	// flit enters it.
	ser := event.Time(flits) * n.cfg.LinkDelay
	x, y := n.xyLegs(src, dst)
	head := n.walk(x, now+n.cfg.RouterDelay, ser)
	head = n.walk(y, head, ser)
	hops := uint64(x.hops + y.hops)
	n.stats.FlitHops += uint64(flits) * hops
	n.stats.RouterHops += hops
	// Tail flit trails the head by the serialization time of the last link.
	arrival := head + ser - n.cfg.LinkDelay
	if arrival < head {
		arrival = head
	}
	n.deliverAt(arrival, arrival-now, fn, arg)
}

// walk occupies g's links in path order for a packet whose head flit is
// at g.node at cycle head, records in headAt the head-flit time at each
// node the leg reaches, and returns the head-flit time at its last node. A
// packet whose head reaches a busy link waits for it to drain (a stall),
// then holds it for ser cycles; the head flit moves on after the link's
// wire and the next router. A leg's stall cycles are what its head time
// gained beyond the hops' fixed delay; they are added to the statistics
// once, and an attached observer hears of the leg afterwards (observe).
//
//spcoh:noalloc
func (n *Network) walk(g leg, head, ser event.Time) event.Time {
	if g.hops <= 0 {
		return head
	}
	hop := n.cfg.LinkDelay + n.cfg.RouterDelay
	end := hopLoop(n.busyUntil, n.headAt, g, head, ser, hop)
	n.stats.StallCycles += uint64(end - head - event.Time(g.hops)*hop)
	if n.obs != nil {
		n.observe(g, head, ser)
	}
	return end
}

// hopLoop is walk's loop: per hop a bounds-checked load, a max (a CMOV,
// not a branch on the link's state) and two stores. It makes no calls and
// keeps no counter besides the link index (link l leaves node l/4). It is
// a function of its own because, inlined into walk, it shares registers
// with the state walk needs after it, and Go then reloads that state from
// the stack on every hop.
//
//go:noinline
func hopLoop(busyUntil, headAt []event.Time, g leg, head, ser, hop event.Time) event.Time {
	stride := 4 * g.step
	for l, end := g.node*4+g.dir, (g.node+g.hops*g.step)*4+g.dir; l != end; {
		h := max(head, busyUntil[l])
		busyUntil[l] = h + ser
		head = h + hop
		l += stride
		headAt[l>>2] = head
	}
	return head
}

// observe reports a leg that walk has just reserved to the observer, from
// the state walk left: link l was entered at h = busyUntil[l]−ser, after a
// stall of h minus the head-flit time at the node it leaves. Per link, in
// path order, it calls LinkStall when the stall is positive, then
// LinkBusy for [h, h+ser): the calls a link-by-link reservation makes.
// It runs only on instrumented runs and stays out of line, so walk's hot
// path carries one nil test for it.
//
//go:noinline
func (n *Network) observe(g leg, head, ser event.Time) {
	hop := n.cfg.LinkDelay + n.cfg.RouterDelay
	for i, l := 0, g.node*4+g.dir; i < g.hops; i, l = i+1, l+4*g.step {
		h := n.busyUntil[l] - ser
		if h > head {
			n.obs.LinkStall(l, h-head)
		}
		n.obs.LinkBusy(l, h, h+ser)
		head = h + hop
	}
}

// treeExtent returns the column span [lo, hi] of the X-Y broadcast tree
// from src to dsts and sets colLo[x]/colHi[x] to the row span the tree
// covers in each column x of it. The tree is the union of the X-Y routes:
// row sy from column lo to hi, then in each column x the links from row sy
// out to colLo[x] and colHi[x]. It has (hi−lo) + Σ(colHi[x]−colLo[x])
// links.
func (n *Network) treeExtent(src arch.NodeID, dsts arch.SharerSet) (lo, hi int) {
	sx, sy := n.col[src], n.row[src]
	for x := range n.colLo {
		n.colLo[x], n.colHi[x] = sy, sy
	}
	lo, hi = sx, sx
	dsts.ForEach(func(d arch.NodeID) {
		x, y := n.col[d], n.row[d]
		lo, hi = min(lo, x), max(hi, x)
		n.colLo[x], n.colHi[x] = min(n.colLo[x], y), max(n.colHi[x], y)
	})
	return lo, hi
}

// Broadcast delivers a packet to every member of dsts along an in-network
// multicast tree: the union of the X-Y routes, with each tree link carrying
// the packet exactly once. This models the replicating, totally-ordered
// fabric the paper assumes for its snooping comparison (§5.1); source-side
// replication would serialize 15 packets through one injection port and
// unfairly penalize broadcast. fn(args[d]) runs at each destination d's
// arrival, in ascending order of d within a cycle; args is indexed by node
// and must cover every member of dsts. The caller owns the per-destination
// arguments, so with pointer-shaped args a warm broadcast allocates
// nothing.
//
// The tree is walked in one pass, row links outward from src and then
// each column's links outward from the row. Each link's head-flit time
// depends only on links upstream of it, and each link is walked once, so
// occupancy, stalls and arrivals are those of walking every destination's
// route in turn.
//
//spcoh:noalloc
func (n *Network) Broadcast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, fn event.ArgFunc, args []any) {
	now := n.sim.Now()
	flits := n.Flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)

	lo, hi := n.treeExtent(src, dsts)
	sx, sy, w := n.col[src], n.row[src], n.cfg.Width
	inject := now + n.cfg.RouterDelay
	n.headAt[src] = inject
	n.walk(leg{int(src), dirEast, 1, hi - sx}, inject, ser)
	n.walk(leg{int(src), dirWest, -1, sx - lo}, inject, ser)
	links := hi - lo
	for x := lo; x <= hi; x++ {
		r := int(src) + x - sx // (x, sy)
		head := n.headAt[r]
		n.walk(leg{r, dirSouth, w, n.colHi[x] - sy}, head, ser)
		n.walk(leg{r, dirNorth, -w, sy - n.colLo[x]}, head, ser)
		links += n.colHi[x] - n.colLo[x]
	}
	n.stats.FlitHops += uint64(flits * links)
	n.stats.RouterHops += uint64(links)

	dsts.ForEach(func(d arch.NodeID) {
		if d == src {
			// Loopback is a delivery like any other: it costs the local
			// router traversal and is counted in Deliveries/TotalLat
			// (mirroring SendFn's src == dst path).
			n.deliverAt(now+n.cfg.RouterDelay, n.cfg.RouterDelay, fn, args[d])
			return
		}
		head := n.headAt[d]
		arrival := head + ser - n.cfg.LinkDelay
		if arrival < head {
			arrival = head
		}
		n.deliverAt(arrival, arrival-now, fn, args[d])
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
