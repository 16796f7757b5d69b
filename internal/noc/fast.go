package noc

import (
	"spcoh/internal/arch"
	"spcoh/internal/event"
)

// Fast-mode injection paths (DESIGN.md §15). The fast functional simulation
// keeps every bandwidth/energy quantity of the detailed model exact —
// Packets, Deliveries, Bytes, FlitHops and RouterHops are computed from the
// same route geometry — but replaces link occupancy with contention-free
// latency arithmetic: a packet's delivery time is a pure function of the
// mesh distance and its serialization, links are never marked busy, and
// StallCycles stays zero. Callers schedule the returned latencies on their
// own cascade clock instead of the engine's real clock.

// FastLat returns the contention-free delivery latency of a packet of
// payloadBytes from src to dst: the detailed send() pipeline — source
// router, then per hop one link wire plus one downstream router, with the
// tail flit trailing the head by the last link's serialization — evaluated
// with every link free.
func (n *Network) FastLat(src, dst arch.NodeID, payloadBytes int) event.Time {
	if src == dst {
		return n.cfg.RouterDelay
	}
	flits := n.Flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	hops := event.Time(n.Hops(src, dst))
	return n.cfg.RouterDelay + hops*(n.cfg.LinkDelay+n.cfg.RouterDelay) + ser - n.cfg.LinkDelay
}

// FastSend accounts one packet injection and delivery (the same statistics
// Send accumulates, minus stalls) and returns the contention-free delivery
// latency for the caller to schedule.
//
//spcoh:noalloc
func (n *Network) FastSend(src, dst arch.NodeID, payloadBytes int) event.Time {
	flits := n.Flits(payloadBytes)
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	if src != dst {
		h := n.Hops(src, dst)
		n.stats.FlitHops += uint64(flits * h)
		n.stats.RouterHops += uint64(h)
	}
	lat := n.FastLat(src, dst, payloadBytes)
	n.stats.Deliveries++
	n.stats.TotalLat += uint64(lat)
	if n.obs != nil {
		n.obs.Deliver(lat)
	}
	return lat
}

// FastBroadcast accounts one in-network-tree broadcast (each tree link
// carries the packet exactly once, as in Broadcast) and invokes deliver
// synchronously per destination, in ascending order, with that endpoint's
// contention-free latency. With free links the head-flit time at any tree
// node is a pure function of its route depth, so each destination's latency
// equals the unicast FastLat; the tree's extents (treeExtent) give its link
// count for FlitHops/RouterHops.
func (n *Network) FastBroadcast(src arch.NodeID, dsts arch.SharerSet, payloadBytes int, deliver func(d arch.NodeID, lat event.Time)) {
	flits := n.Flits(payloadBytes)
	ser := event.Time(flits) * n.cfg.LinkDelay
	n.stats.Packets++
	n.stats.Bytes += uint64(flits * n.cfg.FlitBytes)
	lo, hi := n.treeExtent(src, dsts)
	links := hi - lo
	for x := lo; x <= hi; x++ {
		links += n.colHi[x] - n.colLo[x]
	}
	n.stats.FlitHops += uint64(flits * links)
	n.stats.RouterHops += uint64(links)
	perHop := n.cfg.LinkDelay + n.cfg.RouterDelay
	dsts.ForEach(func(d arch.NodeID) {
		lat := n.cfg.RouterDelay
		if d != src {
			lat += event.Time(n.Hops(src, d))*perHop + ser - n.cfg.LinkDelay
		}
		n.stats.Deliveries++
		n.stats.TotalLat += uint64(lat)
		if n.obs != nil {
			n.obs.Deliver(lat)
		}
		deliver(d, lat)
	})
}
