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
// modeled by a zero-cost per-line arbitration queue, kept at the line's
// home tile: conflicting requests to the same line serialize, which is
// what a physically ordered network provides for free. Reads and writes
// complete when data arrives, from a cache or from the home's memory;
// upgrades complete when the broadcast has reached every tile.
//
// A miss allocates nothing in steady state (DESIGN.md §11). Each
// transaction is one txn record from a per-System freelist, built once
// with a probe-and-response record per destination; the broadcast and
// every response carry those records through the event queue as pre-bound
// arguments. A record goes back to the freelist when its count of pending
// uses (completion, each destination's response, the home's speculative
// fetch) reaches zero, and CheckQuiescent verifies at the end of a run
// that every record came back exactly once.
package snoop

import (
	"fmt"

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

	// txnPool is the txn freelist (see txn.pending); txnMade counts the
	// records ever built, so at quiescence the pool holds every one.
	txnPool []*txn
	txnMade int
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
	sys *System

	// outstanding holds the tile's in-flight transactions, at most one per
	// line, in no particular order.
	outstanding []*txn

	// arb is the arbitration queue of the lines homed at this tile, which
	// models the ordered interconnect: one entry per busy line, the head
	// transaction that owns it, in no particular order. The transactions
	// waiting behind a head are linked through txn.next.
	arb []*txn

	stats Stats
}

// txn is one broadcast transaction. Records come from System.txnPool and
// are built once, with their per-destination records; a record goes back
// to the pool when pending drops to zero.
type txn struct {
	node  *Node
	line  arch.LineAddr
	kind  predictor.MissKind
	start event.Time

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

	// next is the transaction queued behind this one in its home's arb.
	next *txn

	// pending counts the uses of the record still to come: one for the
	// completion (done called), one per destination until its response
	// arrives, and one for the home's speculative memory fetch until it
	// is cancelled or its data arrives. unref recycles the record when the
	// last of them is gone, so no scheduled event ever holds a free txn.
	pending int

	// peers[d] is tile d's probe-and-response record and args[d] is
	// &peers[d], the per-destination argument of noc.Broadcast. Both are
	// built with the record and never change.
	peers []peer
	args  []any
}

// peer is one destination's share of a transaction: the snoop request's
// arrival at tile n, then n's response back to the requester. Each
// destination probes once and answers once, so one record serves both.
type peer struct {
	t         *txn
	n         *Node // the probed tile and responder
	bytes     int
	had, data bool
	sent      event.Time
}

// New assembles a snoop system.
func New(sim *event.Sim, cfg protocol.Config) *System {
	s := &System{Cfg: cfg, Sim: sim, Net: noc.New(sim, cfg.NoC)}
	s.Nodes = make([]*Node, cfg.Nodes)
	for i := range s.Nodes {
		s.Nodes[i] = &Node{Tile: protocol.NewTile(arch.NodeID(i), &s.Cfg), sys: s}
	}
	return s
}

// getTxn takes a record off the freelist, or builds one, for n's miss on
// line; it starts with the completion's pending use.
func (s *System) getTxn(n *Node, line arch.LineAddr, kind predictor.MissKind, done func()) *txn {
	var t *txn
	if k := len(s.txnPool); k > 0 {
		t = s.txnPool[k-1]
		s.txnPool = s.txnPool[:k-1]
	} else {
		s.txnMade++
		t = &txn{peers: make([]peer, len(s.Nodes)), args: make([]any, len(s.Nodes))}
		for d, m := range s.Nodes {
			t.peers[d] = peer{t: t, n: m}
			t.args[d] = &t.peers[d]
		}
	}
	t.node, t.line, t.kind, t.start, t.done = n, line, kind, s.Sim.Now(), done
	t.pending = 1
	return t
}

// unref drops one pending use of t and, after the last, clears the record
// (keeping its per-destination records and the waiters backing array) and
// returns it to the freelist.
//
//spcoh:noalloc
func (s *System) unref(t *txn) {
	t.pending--
	if t.pending > 0 {
		return
	}
	*t = txn{waiters: t.waiters[:0], peers: t.peers, args: t.args}
	s.txnPool = append(s.txnPool, t)
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

// Outstanding reports the transactions in flight plus the lines held in
// arbitration; both are zero at quiescence.
func (s *System) Outstanding() int {
	k := 0
	for _, n := range s.Nodes {
		k += len(n.outstanding) + len(n.arb)
	}
	return k
}

// CheckQuiescent returns an error unless the system is quiescent: nothing
// in flight or arbitrated, and every txn record back in the pool exactly
// once with no pending use.
func (s *System) CheckQuiescent() error {
	if k := s.Outstanding(); k != 0 {
		return fmt.Errorf("snoop: %d transactions or arbitrated lines left at quiescence", k)
	}
	if len(s.txnPool) != s.txnMade {
		return fmt.Errorf("snoop: %d of %d txn records back in the pool", len(s.txnPool), s.txnMade)
	}
	seen := make(map[*txn]bool, len(s.txnPool))
	for _, t := range s.txnPool {
		if seen[t] || t.pending != 0 {
			return fmt.Errorf("snoop: txn record pooled twice or with %d pending uses", t.pending)
		}
		seen[t] = true
	}
	return nil
}

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
	for _, prev := range n.outstanding {
		if prev.line == line {
			write := kind != predictor.ReadMiss
			prev.waiters = append(prev.waiters, func() { n.Access(0, line.Base(), write, done) })
			return
		}
	}
	t := n.sys.getTxn(n, line, kind, done)
	n.outstanding = append(n.outstanding, t)
	detect := n.sys.Cfg.L1Latency + n.sys.Cfg.L2TagLatency
	n.sys.Sim.AfterFn(detect, arbJoin, t)
}

// arbJoin fires when miss detection completes: the transaction joins its
// line's arbitration queue at the home tile and broadcasts if it is the
// head.
//
//spcoh:noalloc
func arbJoin(a any) {
	t := a.(*txn)
	s := t.node.sys
	if s.Fast {
		// Atomic transaction: the line cannot be contended mid-flight, so
		// arbitration is trivially empty and skipped (complete's release
		// code finds no queue).
		s.casc.Begin(s.Sim.Now())
		t.node.broadcast(t)
		s.casc.Drain()
		return
	}
	home := s.Nodes[s.Cfg.Home(t.line)]
	for _, head := range home.arb {
		if head.line == t.line {
			for head.next != nil {
				head = head.next
			}
			head.next = t
			return
		}
	}
	home.arb = append(home.arb, t)
	t.node.broadcast(t)
}

// broadcast sends the snoop request to every other tile along the fabric's
// multicast tree.
func (n *Node) broadcast(t *txn) {
	n.stats.Misses++
	s := n.sys
	t.expected = s.Cfg.Nodes - 1
	t.pending += t.expected
	dsts := arch.FullSet(s.Cfg.Nodes).Remove(n.ID())
	// The home's memory controller sees the ordered broadcast too and
	// fetches speculatively; the fetch is cancelled if a cache supplies
	// first (the HITM signal of bus-based snooping). When the requester is
	// its own home the fetch starts locally.
	local := t.kind != predictor.UpgradeMiss && s.Cfg.Home(t.line) == n.ID()
	if local {
		t.pending++
	}
	if s.Fast {
		base := s.casc.Now()
		s.Net.FastBroadcast(n.ID(), dsts, protocol.ControlBytes, func(d arch.NodeID, lat event.Time) {
			if s.obs != nil && s.obs.Request != nil {
				s.obs.Request(lat)
			}
			s.casc.At(base+lat, snoopArrive, t.args[d])
		})
		if local {
			s.casc.After(s.Cfg.MemLatency, localMemFetch, t)
		}
		return
	}
	t.sent = s.Sim.Now()
	s.Net.Broadcast(n.ID(), dsts, protocol.ControlBytes, snoopArrive, t.args)
	if local {
		s.Sim.AfterFn(s.Cfg.MemLatency, localMemFetch, t)
	}
}

// snoopArrive fires when the snoop request reaches a destination; its arg
// is that destination's peer record. A fast-mode broadcast reported its
// request latencies when it was sent.
//
//spcoh:noalloc
func snoopArrive(a any) {
	p := a.(*peer)
	s := p.n.sys
	if s.obs != nil && s.obs.Request != nil && !s.Fast {
		s.obs.Request(s.Sim.Now() - p.t.sent)
	}
	p.n.snoop(p)
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
	t.node.sys.unref(t)
}

// speculativeFetch is the home-side memory fetch launched on broadcast
// delivery; data is sent only if no cache has supplied by completion.
func (n *Node) speculativeFetch(t *txn) {
	if t.memRequested {
		return
	}
	t.memRequested = true
	t.home = n
	t.pending++
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
	s := t.home.sys
	if t.data || t.memData || t.done == nil {
		s.unref(t) // cancelled: a cache answered first
		return
	}
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
	s.unref(t)
}

// discard is the delivery of a fire-and-forget memory-update writeback: the
// packet's delivery event still fires, and does nothing.
func discard(any) {}

// snoop probes this tile's L2 on behalf of p's transaction and responds.
func (n *Node) snoop(p *peer) {
	t := p.t
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
			p.respond(s.Cfg.L2HitLatency(), protocol.DataBytes, true, true)
		} else {
			p.respond(s.Cfg.L2TagLatency, protocol.ControlBytes, st.Valid(), false)
		}
		return
	}
	// Write or upgrade: invalidate; forwardable copies supply data.
	if !st.Valid() {
		p.respond(s.Cfg.L2TagLatency, protocol.ControlBytes, false, false)
		return
	}
	n.Invalidate(t.line)
	if st.CanForward() {
		p.respond(s.Cfg.L2HitLatency(), protocol.DataBytes, true, true)
	} else {
		p.respond(s.Cfg.L2TagLatency, protocol.ControlBytes, true, false)
	}
}

// respond schedules the responder's answer after its local lookup delay
// lat: bytes of payload, whether it held a copy, whether it supplies data.
func (p *peer) respond(lat event.Time, bytes int, had, data bool) {
	p.bytes, p.had, p.data = bytes, had, data
	s := p.n.sys
	if s.Fast {
		s.casc.After(lat, respLaunch, p)
		return
	}
	s.Sim.AfterFn(lat, respLaunch, p)
}

// respLaunch fires when the responder's L2 lookup latency elapses and
// injects the response packet.
//
//spcoh:noalloc
func respLaunch(a any) {
	p := a.(*peer)
	s := p.n.sys
	if s.Fast {
		p.sent = s.casc.Now()
		lat := s.Net.FastSend(p.n.ID(), p.t.node.ID(), p.bytes)
		s.casc.After(lat, respArrive, p)
		return
	}
	p.sent = s.Sim.Now()
	s.Net.SendFn(p.n.ID(), p.t.node.ID(), p.bytes, respArrive, p)
}

// respArrive fires at the requester: it updates the transaction, re-checks
// completion and drops the destination's pending use.
//
//spcoh:noalloc
func respArrive(a any) {
	p := a.(*peer)
	t := p.t
	s := p.n.sys
	if s.obs != nil && s.obs.Response != nil {
		s.obs.Response(s.clockNow() - p.sent)
	}
	if p.had {
		t.anyShared = true
	}
	if p.data {
		t.data = true
	}
	t.node.complete(t)
	s.unref(t)
}

// complete finishes the transaction when the ordered fabric semantics are
// satisfied: reads and writes finish when data arrives (from a cache, or
// from the home's speculative fetch when no cache holds the line);
// upgrades finish when the broadcast has been delivered everywhere — on a
// totally ordered interconnect delivery *is* the invalidation, so no ack
// collection gates completion (responses still flow for bandwidth/energy
// accounting and sharing-state reconstruction). Its caller holds a pending
// use of t, so the record outlives the call.
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
	n.dropOutstanding(t)

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

	n.sys.releaseArb(t)

	if n.sys.Fast {
		// The cascade resolves the transaction at one real instant;
		// surface the completion to the CPU at its virtual time.
		n.sys.Sim.At(t.start+cpuLat, done)
	} else {
		done()
	}
	for i, w := range t.waiters {
		t.waiters[i] = nil
		w()
	}
	n.sys.unref(t)
}

// dropOutstanding removes t from the tile's in-flight list.
func (n *Node) dropOutstanding(t *txn) {
	for i, o := range n.outstanding {
		if o == t {
			last := len(n.outstanding) - 1
			n.outstanding[i] = n.outstanding[last]
			n.outstanding[last] = nil
			n.outstanding = n.outstanding[:last]
			return
		}
	}
}

// releaseArb releases t's line arbitration at its home and broadcasts the
// next queued transaction. A fast-mode transaction never joined a queue,
// so it finds none.
func (s *System) releaseArb(t *txn) {
	home := s.Nodes[s.Cfg.Home(t.line)]
	for i, head := range home.arb {
		if head != t {
			continue
		}
		if next := t.next; next != nil {
			t.next = nil
			home.arb[i] = next
			next.node.broadcast(next)
			return
		}
		last := len(home.arb) - 1
		home.arb[i] = home.arb[last]
		home.arb[last] = nil
		home.arb = home.arb[:last]
		return
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
