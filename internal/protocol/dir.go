package protocol

import (
	"fmt"
	"math/bits"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/predictor"
)

// dirState is the stable directory state of a line.
type dirState uint8

const (
	dirU dirState = iota // uncached: memory owns the only copy
	dirS                 // one or more shared copies; fwd may hold F
	dirE                 // one cache owns the line (E or M locally)
)

func (s dirState) String() string {
	switch s {
	case dirU:
		return "U"
	case dirS:
		return "S"
	default:
		return "E"
	}
}

// dirLine is the full-map directory entry for one cache line.
type dirLine struct {
	state   dirState
	owner   arch.NodeID    // valid in dirE
	sharers arch.SharerSet // valid in dirS
	fwd     arch.NodeID    // F-state holder within sharers; None = memory supplies
	busy    bool           // a Get transaction is in flight
	queue   []Msg          // requests waiting for the line to go idle

	// pendingSupplier is, during a busy transaction whose data plan relies
	// on a predicted forwarder, the node expected to supply; a GetRetry is
	// repaired by a directory-issued forward to it.
	pendingSupplier arch.NodeID
}

// DirSlice is one tile's directory slice. Lines are materialized lazily:
// an absent entry means dirU.
type DirSlice struct {
	sys  *System
	self arch.NodeID

	// table holds the materialized lines: an open-addressed hash table
	// with linear probing, a power-of-two number of slots kept at most
	// half full, indexed by a multiplicative hash of the line address (a
	// slice's lines share their low Home bits, so the hash must take the
	// high bits of the product). An empty slot has e == nil. Entries are
	// never removed, so a probe ends at the line or at the first empty
	// slot.
	table []dirSlot
	used  int  // occupied slots
	shift uint // 64 - log2(len(table))

	// slab is the chunk new lines are carved from: entries are taken from
	// its spare capacity and a full chunk is replaced, never grown, so the
	// pointers in table stay valid when it grows. Chunks double up to
	// dirSlabMax, so a slice that touches a handful of lines pays for a
	// handful.
	slab []dirLine
}

// dirSlot is one slot of DirSlice.table.
type dirSlot struct {
	line arch.LineAddr
	e    *dirLine
}

const (
	dirTableMin = 16 // initial slots: 8 lines before the first growth
	dirSlabMin  = 4
	dirSlabMax  = 256
)

func newDirSlice(sys *System, self arch.NodeID) *DirSlice {
	d := &DirSlice{sys: sys, self: self}
	d.resize(dirTableMin)
	return d
}

// slot returns the home slot of l: the top log2(len(table)) bits of l
// times 2^64/φ.
//
//spcoh:noalloc
func (d *DirSlice) slot(l arch.LineAddr) int {
	return int(uint64(l) * 0x9E3779B97F4A7C15 >> d.shift)
}

// find returns the slot where l's probe ends: l's own slot, or the empty
// slot where l would go.
//
//spcoh:noalloc
func (d *DirSlice) find(l arch.LineAddr) int {
	mask := len(d.table) - 1
	i := d.slot(l)
	for d.table[i].e != nil && d.table[i].line != l {
		i = (i + 1) & mask
	}
	return i
}

// line returns l's entry, materializing an idle (dirU) one on first use.
//
//spcoh:noalloc
func (d *DirSlice) line(l arch.LineAddr) *dirLine {
	i := d.find(l)
	if e := d.table[i].e; e != nil {
		return e
	}
	return d.insert(l, i)
}

// lookup returns l's entry, or nil when l was never materialized.
func (d *DirSlice) lookup(l arch.LineAddr) *dirLine { return d.table[d.find(l)].e }

// insert materializes l in empty slot i (the end of l's probe), first
// doubling the table if one more line would fill it past half.
func (d *DirSlice) insert(l arch.LineAddr, i int) *dirLine {
	if 2*(d.used+1) > len(d.table) {
		d.resize(2 * len(d.table))
		i = d.find(l)
	}
	e := d.newLine()
	d.table[i] = dirSlot{l, e}
	d.used++
	return e
}

// resize rehashes every line into a table of n slots (a power of two).
func (d *DirSlice) resize(n int) {
	old := d.table
	d.table = make([]dirSlot, n)
	d.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.e != nil {
			d.table[d.find(s.line)] = s
		}
	}
}

// newLine carves an idle (dirU) entry from the slab.
func (d *DirSlice) newLine() *dirLine {
	if len(d.slab) == cap(d.slab) {
		n := min(max(2*cap(d.slab), dirSlabMin), dirSlabMax)
		d.slab = make([]dirLine, 0, n)
	}
	d.slab = d.slab[:len(d.slab)+1]
	e := &d.slab[len(d.slab)-1]
	e.state, e.owner, e.fwd, e.pendingSupplier = dirU, arch.None, arch.None, arch.None
	return e
}

// handle processes a directory-bound message.
func (d *DirSlice) handle(m *Msg) {
	switch m.Kind {
	case MsgGetS, MsgGetM:
		e := d.line(m.Line)
		if e.busy {
			e.queue = append(e.queue, *m)
			return
		}
		d.startGet(e, m)
	case MsgPutS, MsgPutE, MsgPutM:
		e := d.line(m.Line)
		if e.busy {
			e.queue = append(e.queue, *m)
			return
		}
		d.handlePut(e, m)
	case MsgUnblock:
		e := d.line(m.Line)
		e.busy = false
		e.pendingSupplier = arch.None
		d.drain(e, m.Line)
	case MsgGetRetry:
		// The requester's transaction already holds the line busy and the
		// state transition is done; replay the data delivery through the
		// registered supplier (which also repairs its downgrade or
		// invalidation), or from memory if none is registered.
		e := d.line(m.Line)
		if e.pendingSupplier != arch.None && e.pendingSupplier != m.Requester {
			kind := MsgFwdGetS
			if m.MissKind != predictor.ReadMiss {
				kind = MsgFwdGetM
			}
			d.reply(&Msg{Kind: kind, Dst: e.pendingSupplier, Line: m.Line,
				Requester: m.Requester, MissKind: m.MissKind})
		} else {
			d.memData(m, false, 0)
		}
	case MsgDirUpd, MsgWriteback:
		// Bandwidth/energy accounting only: the authoritative state change
		// happens when the companion request is processed.
	default:
		panic(fmt.Sprintf("dir %d: unexpected message %v", d.self, m.Kind))
	}
}

// drain processes queued requests until one marks the line busy again.
func (d *DirSlice) drain(e *dirLine, l arch.LineAddr) {
	for len(e.queue) > 0 && !e.busy {
		m := e.queue[0]
		e.queue = e.queue[1:]
		switch m.Kind {
		case MsgGetS, MsgGetM:
			d.startGet(e, &m)
		default:
			d.handlePut(e, &m)
		}
	}
}

// dirGet is the pooled binding of a directory access in flight (startGet's
// DirLatency delay).
//
//spcoh:pooled
type dirGet struct {
	d *DirSlice
	e *dirLine
	m Msg
}

// fireDirGet processes the request in place and frees the record only once
// that returns (the processors read the message by pointer).
//
//spcoh:noalloc
func fireDirGet(a any) {
	g := a.(*dirGet)
	d := g.d
	if g.m.Kind == MsgGetS {
		d.processGetS(g.e, &g.m)
	} else {
		d.processGetM(g.e, &g.m)
	}
	g.d, g.e = nil, nil
	d.sys.getPool = append(d.sys.getPool, g)
}

// startGet begins a Get transaction after the directory access latency.
func (d *DirSlice) startGet(e *dirLine, m *Msg) {
	e.busy = true
	s := d.sys
	var g *dirGet
	if k := len(s.getPool); k > 0 {
		g = s.getPool[k-1]
		s.getPool = s.getPool[:k-1]
		g.d, g.e, g.m = d, e, *m
	} else {
		g = &dirGet{d: d, e: e, m: *m}
	}
	if s.Fast {
		s.casc.After(s.Cfg.DirLatency, fireDirGet, g)
		return
	}
	s.Sim.AfterFn(s.Cfg.DirLatency, fireDirGet, g)
}

// reply sends a message originating at this directory slice.
func (d *DirSlice) reply(m *Msg) {
	m.Src = d.self
	d.sys.send(m)
}

// memFetch is the pooled binding of a memory round trip launched by
// memData.
//
//spcoh:pooled
type memFetch struct {
	d    *DirSlice
	m    Msg
	excl bool
	acks int
}

//spcoh:noalloc
func fireMemFetch(a any) {
	f := a.(*memFetch)
	d, m, excl, acks := f.d, f.m, f.excl, f.acks
	f.d = nil
	d.sys.memPool = append(d.sys.memPool, f)
	d.reply(&Msg{
		Kind: MsgData, Dst: m.Requester, Line: m.Line, Requester: m.Requester,
		Excl: excl, FromMem: true, AckCount: acks, MissKind: m.MissKind,
	})
}

// memData schedules a memory fetch and then a data response to the
// requester. The line stays busy until the requester unblocks.
func (d *DirSlice) memData(m *Msg, excl bool, acks int) {
	s := d.sys
	var f *memFetch
	if k := len(s.memPool); k > 0 {
		f = s.memPool[k-1]
		s.memPool = s.memPool[:k-1]
		f.d, f.m, f.excl, f.acks = d, *m, excl, acks
	} else {
		f = &memFetch{d: d, m: *m, excl: excl, acks: acks}
	}
	if s.Fast {
		s.casc.After(s.Cfg.MemLatency, fireMemFetch, f)
		return
	}
	s.Sim.AfterFn(s.Cfg.MemLatency, fireMemFetch, f)
}

// processGetS services a read miss. The directory determines, from its own
// serialized view, whether the predicted set was sufficient (§4.5); if so
// the predicted holder has already forwarded data and the directory only
// updates state and confirms.
func (d *DirSlice) processGetS(e *dirLine, m *Msg) {
	req := m.Requester
	var supplier arch.NodeID = arch.None
	switch e.state {
	case dirE:
		supplier = e.owner
	case dirS:
		supplier = e.fwd
	case dirU:
		// Unowned: no on-chip holder exists, memory supplies the line.
	}
	communicating := supplier != arch.None && supplier != req
	sufficient := communicating && m.Pred.Contains(supplier)

	// Directory verdict to the requester (always sent: carries the
	// prediction result and completes the transaction handshake).
	if sufficient {
		e.pendingSupplier = supplier
	}
	d.reply(&Msg{
		Kind: MsgDirResp, Dst: req, Line: m.Line, Requester: req,
		Excl: sufficient, NeedData: true, MissKind: m.MissKind,
		Pred: m.Pred, HadLine: communicating, PredSupply: sufficient, Supplier: supplier,
	})

	switch {
	case supplier == req:
		// Writeback race: the requester is still the registered holder
		// (its eviction is in flight). Its data lives in its own
		// writeback buffer; confirm with a control-sized data grant.
		d.reply(&Msg{Kind: MsgData, Dst: req, Line: m.Line, Requester: req,
			Excl: e.state == dirE, MissKind: m.MissKind})
		if e.state == dirE {
			// Stays exclusive at req.
		} else {
			e.sharers = e.sharers.Add(req)
			e.fwd = req
		}
	case e.state == dirU:
		// Non-communicating miss: memory supplies an Exclusive copy.
		e.state = dirE
		e.owner = req
		e.sharers = arch.EmptySet
		e.fwd = arch.None
		d.memData(m, true, 0)
	case e.state == dirE:
		prevOwner := e.owner
		if !sufficient {
			d.reply(&Msg{Kind: MsgFwdGetS, Dst: prevOwner, Line: m.Line, Requester: req, MissKind: m.MissKind})
		}
		e.state = dirS
		e.owner = arch.None
		e.sharers = arch.SetOf(prevOwner, req)
		e.fwd = req
	default: // dirS
		if supplier == arch.None {
			// No forwardable copy on chip: memory supplies; the new
			// reader becomes the F holder.
			d.memData(m, false, 0)
		} else if !sufficient {
			d.reply(&Msg{Kind: MsgFwdGetS, Dst: supplier, Line: m.Line, Requester: req, MissKind: m.MissKind})
		}
		e.sharers = e.sharers.Add(req)
		e.fwd = req
	}
}

// processGetM services a write or upgrade miss.
func (d *DirSlice) processGetM(e *dirLine, m *Msg) {
	req := m.Requester
	switch e.state {
	case dirU:
		e.state = dirE
		e.owner = req
		e.sharers = arch.EmptySet
		e.fwd = arch.None
		d.reply(&Msg{Kind: MsgDirResp, Dst: req, Line: m.Line, Requester: req,
			Excl: false, NeedData: true, AckCount: 0, MissKind: m.MissKind, HadLine: false})
		d.memData(m, true, 0)

	case dirE:
		prevOwner := e.owner
		if prevOwner == req {
			// Writeback race: requester is still registered owner.
			e.state = dirE
			e.owner = req
			d.reply(&Msg{Kind: MsgDirResp, Dst: req, Line: m.Line, Requester: req,
				Excl: true, NeedData: false, AckCount: 0, MissKind: m.MissKind, HadLine: true})
			d.reply(&Msg{Kind: MsgData, Dst: req, Line: m.Line, Requester: req,
				Excl: true, MissKind: m.MissKind})
			return
		}
		sufficient := m.Pred.Contains(prevOwner)
		if !sufficient {
			d.reply(&Msg{Kind: MsgFwdGetM, Dst: prevOwner, Line: m.Line, Requester: req, MissKind: m.MissKind})
		}
		e.owner = req
		if sufficient {
			e.pendingSupplier = prevOwner
		}
		d.reply(&Msg{Kind: MsgDirResp, Dst: req, Line: m.Line, Requester: req,
			Excl: sufficient, NeedData: true, AckCount: 0, MissKind: m.MissKind,
			HadLine: true, Pred: arch.SetOf(prevOwner), PredSupply: sufficient, Supplier: prevOwner})

	default: // dirS
		toInval := e.sharers.Remove(req)
		hadLine := e.sharers.Contains(req)
		fwd := e.fwd
		communicating := !toInval.Empty()
		sufficient := communicating && m.Pred.Superset(toInval)

		// Data plan: the F holder (if any, and not the requester) responds
		// with Data rather than a bare InvAck; the requester counts that
		// Data as the holder's invalidation ack. Otherwise memory supplies
		// data unless the requester already holds a copy (upgrade).
		acks := toInval.Count()
		dataFromFwd := fwd != arch.None && fwd != req
		if dataFromFwd && !m.Pred.Contains(fwd) {
			d.reply(&Msg{Kind: MsgFwdGetM, Dst: fwd, Line: m.Line, Requester: req, MissKind: m.MissKind})
		}
		// Invalidate unpredicted sharers (other than fwd, which got a
		// FwdGetM above, and the requester itself).
		pendingInv := toInval.Minus(m.Pred)
		if dataFromFwd {
			pendingInv = pendingInv.Remove(fwd)
		}
		pendingInv.ForEach(func(n arch.NodeID) {
			d.reply(&Msg{Kind: MsgInv, Dst: n, Line: m.Line, Requester: req, MissKind: m.MissKind})
		})

		predSupply := dataFromFwd && m.Pred.Contains(fwd)
		if predSupply {
			e.pendingSupplier = fwd
		}
		d.reply(&Msg{Kind: MsgDirResp, Dst: req, Line: m.Line, Requester: req,
			Excl: sufficient, NeedData: !hadLine, AckCount: acks, MissKind: m.MissKind,
			HadLine: communicating, Pred: toInval,
			PredSupply: predSupply, Supplier: fwd})

		if !hadLine && !dataFromFwd {
			d.memData(m, false, 0)
		}
		e.state = dirE
		e.owner = req
		e.sharers = arch.EmptySet
		e.fwd = arch.None
	}
}

// handlePut retires an eviction notice. Stale puts (the evictor already
// lost its registered role to a racing transaction) are acknowledged with
// no state change.
func (d *DirSlice) handlePut(e *dirLine, m *Msg) {
	q := m.Src
	switch {
	case e.state == dirE && e.owner == q:
		e.state = dirU
		e.owner = arch.None
	case e.state == dirS && e.sharers.Contains(q):
		e.sharers = e.sharers.Remove(q)
		if e.fwd == q {
			e.fwd = arch.None
		}
		if e.sharers.Empty() {
			e.state = dirU
			e.fwd = arch.None
		}
	}
	d.reply(&Msg{Kind: MsgPutAck, Dst: q, Line: m.Line, Requester: q})
}

// checkDirSide audits this slice's entries at quiescence, busy ones
// included, and counts in a.registered the valid copies held by the
// registered holders of the lines whose home it is. Each registered holder
// is probed once. Violations come in two severities:
//
//   - hard: an entry still busy or with queued requests (a transaction
//     that never finished), and a registered holder whose copy is in a
//     state the entry forbids (dir E owner in S, dir S sharer in M or E;
//     home entries only).
//   - soft: on an idle entry, the directory registers a holder whose copy
//     is gone. This is the benign residue of the predicted-invalidation
//     race (see the poison logic in node.go); such lines remain
//     functionally correct because registered nodes always service
//     directory-issued forwards.
//
// Copies the directory does not register are found by
// System.CheckCoherence from the count.
func (d *DirSlice) checkDirSide(a *audit) {
	for _, s := range d.table {
		l, e := s.line, s.e
		if e == nil {
			continue
		}
		idle := !e.busy && len(e.queue) == 0
		if !idle {
			a.hard = append(a.hard, dirViol{l, arch.None,
				fmt.Sprintf("line %#x: busy or queued at quiescence", uint64(l))})
		}
		home := d.sys.Cfg.Home(l) == d.self
		switch e.state {
		case dirE:
			st := d.sys.Nodes[e.owner].l2.Peek(l)
			switch {
			case !st.Valid():
				if idle {
					a.soft = append(a.soft, dirViol{l, e.owner,
						fmt.Sprintf("line %#x: dir E owner %d has no copy", uint64(l), e.owner)})
				}
			case home:
				a.registered++
				if st == cache.Shared {
					a.hard = append(a.hard, dirViol{l, e.owner,
						fmt.Sprintf("line %#x: dir E owner %d has %v", uint64(l), e.owner, st)})
				}
			}
		case dirS:
			e.sharers.ForEach(func(nid arch.NodeID) {
				st := d.sys.Nodes[nid].l2.Peek(l)
				switch {
				case !st.Valid():
					if idle {
						a.soft = append(a.soft, dirViol{l, nid,
							fmt.Sprintf("line %#x: dir S sharer %d has no copy", uint64(l), nid)})
					}
				case home:
					a.registered++
					if st == cache.Modified || st == cache.Exclusive {
						a.hard = append(a.hard, dirViol{l, nid,
							fmt.Sprintf("line %#x: dir S sharer %d has %v", uint64(l), nid, st)})
					}
				}
			})
		case dirU:
			// No registered holders; a stray copy shows in the count.
		}
	}
}
