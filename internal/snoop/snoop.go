// Package snoop implements the broadcast snooping protocol the paper uses
// as its latency-lower-bound / bandwidth-upper-bound comparison point
// (§5.1: "To fairly evaluate a broadcast snoop-based protocol, we assume a
// totally ordered interconnect with the same configuration as the one with
// directory").
//
// Every L2 miss broadcasts a snoop request to all other tiles; each tile
// probes its L2 (energy) and answers with data (forwardable copy), a
// shared indication, or a plain ack; the home tile additionally performs a
// speculative memory fetch. The total order of the paper's interconnect is
// modeled by a zero-cost per-line arbitration queue: conflicting requests
// to the same line serialize, which is what a physically ordered network
// provides for free. Requests complete when all snoop responses (and data,
// when needed) have arrived.
package snoop

import (
	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
)

// Stats counts snoop-system activity, mirroring the directory system's
// counters where they are comparable.
type Stats struct {
	Accesses         uint64
	L1Hits, L2Hits   uint64
	Misses           uint64
	Communicating    uint64
	NonCommunicating uint64
	MissLatencySum   uint64
	SnoopLookups     uint64
	Writebacks       uint64
}

// AvgMissLatency returns the mean L2 miss latency.
func (s *Stats) AvgMissLatency() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.Misses)
}

// System is a broadcast-snooping CMP over the same mesh and cache
// configuration as the directory system.
type System struct {
	Cfg   protocol.Config
	Sim   *event.Sim
	Net   *noc.Network
	Nodes []*Node

	// arb is the per-line arbitration queue modeling the ordered
	// interconnect: arb[line] is the head transaction, which owns the line,
	// and the queue behind it is linked through txn.next.
	arb map[arch.LineAddr]*txn

	// Fast selects the fast functional mode (DESIGN.md §15): each miss's
	// broadcast transaction executes as one atomic virtual-time cascade at
	// a single real-clock instant with contention-free NoC latencies. The
	// transaction is atomic, so the per-line arbitration queue is trivially
	// empty and is skipped; only the CPU-visible completion rides the real
	// engine.
	Fast bool
	casc event.Cascade

	// obs, when set, feeds the run-time metrics layer (nil by default).
	obs *Obs

	// respPool recycles snoop-response bindings (see snoopResp): every
	// broadcast fans out to Nodes-1 responders, so the response path is the
	// package's hottest allocation site.
	respPool []*snoopResp

	// deliverPool recycles the fast-mode broadcast-delivery bindings (see
	// snoopDeliver); same fan-out as respPool.
	deliverPool []*snoopDeliver
}

// snoopDeliver is the pooled binding of one fast-mode broadcast delivery:
// the snoop request's arrival at one remote tile, scheduled on the cascade.
//
//spcoh:pooled
type snoopDeliver struct {
	n *Node // the probed tile
	t *txn
}

func (s *System) getSnoopDeliver(n *Node, t *txn) *snoopDeliver {
	if k := len(s.deliverPool); k > 0 {
		d := s.deliverPool[k-1]
		s.deliverPool = s.deliverPool[:k-1]
		d.n, d.t = n, t
		return d
	}
	return &snoopDeliver{n: n, t: t}
}

//spcoh:noalloc
func fireSnoopDeliver(a any) {
	d := a.(*snoopDeliver)
	n, t := d.n, d.t
	d.n, d.t = nil, nil
	n.sys.deliverPool = append(n.sys.deliverPool, d)
	n.snoop(t)
}

// snoopResp is the pooled binding of one snoop response: the responder's
// local lookup delay, then the network flight back to the requester.
//
//spcoh:pooled
type snoopResp struct {
	n         *Node // responder
	t         *txn
	bytes     int
	had, data bool
	sent      event.Time
}

// respLaunch fires when the responder's L2 lookup latency elapses and
// injects the response packet.
//
//spcoh:noalloc
func respLaunch(a any) {
	r := a.(*snoopResp)
	s := r.n.sys
	if s.Fast {
		r.sent = s.casc.Now()
		lat := s.Net.FastSend(r.n.ID(), r.t.node.ID(), r.bytes)
		s.casc.After(lat, respArrive, r)
		return
	}
	r.sent = s.Sim.Now()
	s.Net.SendFn(r.n.ID(), r.t.node.ID(), r.bytes, respArrive, r)
}

// respArrive fires at the requester: it frees the record, updates the
// transaction and re-checks completion.
//
//spcoh:noalloc
func respArrive(a any) {
	r := a.(*snoopResp)
	s := r.n.sys
	t, had, data, sent := r.t, r.had, r.data, r.sent
	r.n, r.t = nil, nil
	s.respPool = append(s.respPool, r)
	if s.obs != nil && s.obs.Response != nil {
		s.obs.Response(s.clockNow() - sent)
	}
	t.responses++
	if had {
		t.anyShared = true
	}
	if data {
		t.data = true
	}
	t.node.complete(t)
}

// Obs carries the metrics hooks of the snoop protocol. Every field may be
// nil independently. Request fires at each snoop-broadcast delivery and
// Response at each snoop-response delivery, both with network latency;
// memory-update writebacks are fire-and-forget and appear only in the
// NoC-level delivery statistics. Miss fires when a miss completes, with
// its CPU-visible latency.
type Obs struct {
	Request  func(lat event.Time)
	Response func(lat event.Time)
	Miss     func(node arch.NodeID, kind predictor.MissKind, lat event.Time, comm bool)
}

// SetObserver attaches (or, with nil, detaches) the metrics hooks.
func (s *System) SetObserver(o *Obs) { s.obs = o }

// Node is one tile: the cache side it shares with the directory protocol
// (protocol.Tile: L1 + L2 and the hit path) plus the snoop logic.
type Node struct {
	protocol.Tile
	sys         *System
	outstanding map[arch.LineAddr]*txn
	stats       Stats
}

// txn is one outstanding broadcast transaction.
type txn struct {
	node  *Node
	line  arch.LineAddr
	kind  predictor.MissKind
	start event.Time

	responses    int
	delivered    int
	expected     int
	data         bool
	memData      bool
	memRequested bool
	anyShared    bool // some responder held a copy (install F, count communicating)
	done         func()
	waiters      []func()

	// home is the home tile once its speculative fetch is launched; sent
	// and memSent stamp the snoop broadcast's and the memory data's
	// injection times for the metrics observer.
	home          *Node
	sent, memSent event.Time

	// next is the transaction queued behind this one in arb.
	next *txn
}

// New assembles a snoop system.
func New(sim *event.Sim, cfg protocol.Config) *System {
	s := &System{Cfg: cfg, Sim: sim, Net: noc.New(sim, cfg.NoC), arb: make(map[arch.LineAddr]*txn)}
	s.Nodes = make([]*Node, cfg.Nodes)
	for i := range s.Nodes {
		s.Nodes[i] = &Node{Tile: protocol.NewTile(arch.NodeID(i), &s.Cfg), sys: s,
			outstanding: make(map[arch.LineAddr]*txn)}
	}
	return s
}

// Stats aggregates node counters.
func (s *System) Stats() Stats {
	var t Stats
	for _, n := range s.Nodes {
		ns := n.Stats()
		t.Accesses += ns.Accesses
		t.L1Hits += ns.L1Hits
		t.L2Hits += ns.L2Hits
		t.Misses += ns.Misses
		t.Communicating += ns.Communicating
		t.NonCommunicating += ns.NonCommunicating
		t.MissLatencySum += ns.MissLatencySum
		t.SnoopLookups += ns.SnoopLookups
		t.Writebacks += ns.Writebacks
	}
	return t
}

// NetStats returns interconnect statistics.
func (s *System) NetStats() noc.Stats { return s.Net.Stats() }

// clockNow returns the protocol-visible clock: the cascade's virtual time
// while a fast-mode transaction is draining, the engine clock otherwise.
//
//spcoh:noalloc
func (s *System) clockNow() event.Time {
	if s.casc.Active() {
		return s.casc.Now()
	}
	return s.Sim.Now()
}

// Outstanding reports in-flight transactions (quiescence check).
func (s *System) Outstanding() int { return len(s.arb) }

// Stats returns the node's counters.
func (n *Node) Stats() Stats {
	s := n.stats
	h := n.HitStats()
	s.Accesses, s.L1Hits, s.L2Hits = h.Accesses, h.L1Hits, h.L2Hits
	return s
}

// OnSync ignores a synchronization point: snooping has no predictor.
func (n *Node) OnSync(predictor.SyncKind, uint64) {}

// Access performs one memory access; done runs at completion (see
// protocol.Tile.AccessFast for the hit path).
func (n *Node) Access(pc uint64, addr arch.Addr, write bool, done func()) {
	if lat, ok := n.AccessFast(pc, addr, write); ok {
		n.sys.Sim.After(lat, done)
		return
	}
	line := addr.Line()
	n.miss(line, n.ClassifyMiss(line, write), done)
}

func (n *Node) miss(line arch.LineAddr, kind predictor.MissKind, done func()) {
	// A miss on this line is already outstanding here: retry afterwards.
	if prev, ok := n.outstanding[line]; ok {
		write := kind != predictor.ReadMiss
		prev.waiters = append(prev.waiters, func() { n.Access(0, line.Base(), write, done) })
		return
	}
	t := &txn{node: n, line: line, kind: kind, start: n.sys.Sim.Now(), done: done}
	n.outstanding[line] = t
	detect := n.sys.Cfg.L1Latency + n.sys.Cfg.L2TagLatency
	n.sys.Sim.AfterFn(detect, arbJoin, t)
}

// arbJoin fires when miss detection completes: the transaction joins the
// per-line arbitration queue and broadcasts if it is the head.
//
//spcoh:noalloc
func arbJoin(a any) {
	t := a.(*txn)
	n := t.node
	if n.sys.Fast {
		// Atomic transaction: the line cannot be contended mid-flight, so
		// arbitration is trivially empty and skipped (complete's release
		// code is a no-op on an absent queue).
		n.sys.casc.Begin(n.sys.Sim.Now())
		n.broadcast(t)
		n.sys.casc.Drain()
		return
	}
	head, busy := n.sys.arb[t.line]
	if !busy { // we are the head: go
		n.sys.arb[t.line] = t
		n.broadcast(t)
		return
	}
	for head.next != nil {
		head = head.next
	}
	head.next = t
}

// broadcast sends the snoop request to every other tile along the fabric's
// multicast tree.
func (n *Node) broadcast(t *txn) {
	n.stats.Misses++
	s := n.sys
	t.expected = s.Cfg.Nodes - 1
	dsts := arch.FullSet(s.Cfg.Nodes).Remove(n.ID())
	if s.Fast {
		base := s.casc.Now()
		s.Net.FastBroadcast(n.ID(), dsts, protocol.ControlBytes, func(d arch.NodeID, lat event.Time) {
			if s.obs != nil && s.obs.Request != nil {
				s.obs.Request(lat)
			}
			s.casc.At(base+lat, fireSnoopDeliver, s.getSnoopDeliver(s.Nodes[d], t))
		})
		if t.kind != predictor.UpgradeMiss && s.Cfg.Home(t.line) == n.ID() {
			s.casc.After(s.Cfg.MemLatency, localMemFetch, t)
		}
		return
	}
	t.sent = s.Sim.Now()
	s.Net.Broadcast(n.ID(), dsts, protocol.ControlBytes, snoopArrive, t)
	// The home's memory controller sees the ordered broadcast too and
	// fetches speculatively; the fetch is cancelled if a cache supplies
	// first (the HITM signal of bus-based snooping). When the requester is
	// its own home the fetch starts locally.
	if t.kind != predictor.UpgradeMiss && s.Cfg.Home(t.line) == n.ID() {
		s.Sim.AfterFn(s.Cfg.MemLatency, localMemFetch, t)
	}
}

// snoopArrive fires at each broadcast destination d: the snoop request
// for transaction a reaches tile d.
//
//spcoh:noalloc
func snoopArrive(d arch.NodeID, a any) {
	t := a.(*txn)
	s := t.node.sys
	if s.obs != nil && s.obs.Request != nil {
		s.obs.Request(s.Sim.Now() - t.sent)
	}
	s.Nodes[d].snoop(t)
}

// localMemFetch completes a requester-is-home speculative fetch: the data
// is local, so no packet flies.
//
//spcoh:noalloc
func localMemFetch(a any) {
	t := a.(*txn)
	if !t.data && !t.memData && t.done != nil {
		t.memData = true
		t.node.complete(t)
	}
}

// speculativeFetch is the home-side memory fetch launched on broadcast
// delivery; data is sent only if no cache has supplied by completion.
func (n *Node) speculativeFetch(t *txn) {
	if t.memRequested {
		return
	}
	t.memRequested = true
	t.home = n
	if n.sys.Fast {
		n.sys.casc.After(n.sys.Cfg.MemLatency, specFetchLaunch, t)
		return
	}
	n.sys.Sim.AfterFn(n.sys.Cfg.MemLatency, specFetchLaunch, t)
}

// specFetchLaunch fires when the home's memory round trip completes and
// sends the data unless a cache answered first.
//
//spcoh:noalloc
func specFetchLaunch(a any) {
	t := a.(*txn)
	if t.data || t.memData || t.done == nil {
		return // cancelled: a cache answered first
	}
	s := t.home.sys
	if s.Fast {
		t.memSent = s.casc.Now()
		lat := s.Net.FastSend(t.home.ID(), t.node.ID(), protocol.DataBytes)
		s.casc.After(lat, specDataArrive, t)
		return
	}
	t.memSent = s.Sim.Now()
	s.Net.SendFn(t.home.ID(), t.node.ID(), protocol.DataBytes, specDataArrive, t)
}

// specDataArrive fires at the requester with the home's memory data.
//
//spcoh:noalloc
func specDataArrive(a any) {
	t := a.(*txn)
	s := t.node.sys
	if s.obs != nil && s.obs.Response != nil {
		s.obs.Response(s.clockNow() - t.memSent)
	}
	t.memData = true
	t.node.complete(t)
}

// discard is the delivery of a fire-and-forget memory-update writeback: the
// packet's delivery event still fires, and does nothing.
func discard(any) {}

// snoop probes this tile's L2 on behalf of requester t and responds.
func (n *Node) snoop(t *txn) {
	n.stats.SnoopLookups++
	t.delivered++
	s := n.sys
	if t.kind != predictor.UpgradeMiss && s.Cfg.Home(t.line) == n.ID() {
		n.speculativeFetch(t)
	}
	if t.kind == predictor.UpgradeMiss {
		t.node.complete(t) // ordered fabric: delivery is the invalidation
	}
	st := n.L2().Peek(t.line)
	respond := func(lat event.Time, bytes int, had, data bool) {
		var r *snoopResp
		if k := len(s.respPool); k > 0 {
			r = s.respPool[k-1]
			s.respPool = s.respPool[:k-1]
			r.n, r.t, r.bytes, r.had, r.data = n, t, bytes, had, data
		} else {
			r = &snoopResp{n: n, t: t, bytes: bytes, had: had, data: data}
		}
		if s.Fast {
			s.casc.After(lat, respLaunch, r)
			return
		}
		s.Sim.AfterFn(lat, respLaunch, r)
	}
	if t.kind == predictor.ReadMiss {
		if st.CanForward() {
			if st == cache.Modified {
				// Memory update on M->S (data to home).
				if s.Fast {
					s.Net.FastSend(n.ID(), s.Cfg.Home(t.line), protocol.DataBytes)
				} else {
					s.Net.SendFn(n.ID(), s.Cfg.Home(t.line), protocol.DataBytes, discard, nil)
				}
			}
			n.L2().SetState(t.line, cache.Shared)
			respond(s.Cfg.L2HitLatency(), protocol.DataBytes, true, true)
		} else {
			respond(s.Cfg.L2TagLatency, protocol.ControlBytes, st.Valid(), false)
		}
		return
	}
	// Write or upgrade: invalidate; forwardable copies supply data.
	if !st.Valid() {
		respond(s.Cfg.L2TagLatency, protocol.ControlBytes, false, false)
		return
	}
	n.Invalidate(t.line)
	if st.CanForward() {
		respond(s.Cfg.L2HitLatency(), protocol.DataBytes, true, true)
	} else {
		respond(s.Cfg.L2TagLatency, protocol.ControlBytes, true, false)
	}
}

// complete finishes the transaction when the ordered fabric semantics are
// satisfied: reads and writes finish when data arrives (from a cache, or
// from the home's speculative fetch when no cache holds the line);
// upgrades finish when the broadcast has been delivered everywhere — on a
// totally ordered interconnect delivery *is* the invalidation, so no ack
// collection gates completion (responses still flow for bandwidth/energy
// accounting and sharing-state reconstruction).
func (n *Node) complete(t *txn) {
	if t.kind == predictor.UpgradeMiss {
		if t.delivered < t.expected {
			return
		}
	} else if !t.data && !t.memData {
		return // speculative memory data is on its way
	}
	if t.done == nil {
		return // already completed (late memory data)
	}
	done := t.done
	t.done = nil
	delete(n.outstanding, t.line)

	cpuLat := n.sys.clockNow() - t.start
	n.stats.MissLatencySum += uint64(cpuLat)
	if t.anyShared {
		n.stats.Communicating++
	} else {
		n.stats.NonCommunicating++
	}
	if o := n.sys.obs; o != nil && o.Miss != nil {
		o.Miss(n.ID(), t.kind, cpuLat, t.anyShared)
	}

	// Install.
	switch t.kind {
	case predictor.ReadMiss:
		st := cache.Exclusive
		if t.anyShared {
			st = cache.Forward
		}
		n.fill(t.line, st)
	default:
		n.fill(t.line, cache.Modified)
	}

	// Release the line arbitration and start the next queued request.
	head := n.sys.arb[t.line]
	if head == t {
		head, t.next = t.next, nil
	}
	if head == nil {
		delete(n.sys.arb, t.line)
	} else {
		n.sys.arb[t.line] = head
		head.node.broadcast(head)
	}

	if n.sys.Fast {
		// The cascade resolves the transaction at one real instant;
		// surface the completion to the CPU at its virtual time.
		n.sys.Sim.At(t.start+cpuLat, done)
	} else {
		done()
	}
	for _, w := range t.waiters {
		w()
	}
}

// fill installs a line (protocol.Tile.Fill) and writes a dirty L2 victim
// back to its home.
func (n *Node) fill(l arch.LineAddr, st cache.State) {
	if v, evicted := n.Fill(l, st); evicted {
		if v.State == cache.Modified {
			n.stats.Writebacks++
			if n.sys.Fast {
				n.sys.Net.FastSend(n.ID(), n.sys.Cfg.Home(v.Addr), protocol.DataBytes)
			} else {
				n.sys.Net.SendFn(n.ID(), n.sys.Cfg.Home(v.Addr), protocol.DataBytes, discard, nil)
			}
		}
	}
}
