package protocol

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
)

// externalTrainer is implemented by predictors that learn from incoming
// coherence requests (the ADDR predictor), in addition to responses.
type externalTrainer interface {
	TrainExternal(line arch.LineAddr, requester arch.NodeID)
}

// NodeStats counts per-node protocol activity. All counters are merged
// across nodes by System.Stats.
type NodeStats struct {
	Accesses                               uint64
	L1Hits                                 uint64
	L2Hits                                 uint64
	Misses                                 uint64 // L2 misses (coherence transactions)
	ReadMisses, WriteMisses, UpgradeMisses uint64

	Communicating    uint64 // misses that had to contact another cache
	NonCommunicating uint64

	Predicted        uint64 // misses issued with a non-empty predicted set
	PredCorrect      uint64 // predicted set sufficient (dir verdict)
	PredCorrectByTag [8]uint64
	PredWrong        uint64
	PredOnNonComm    uint64 // prediction attempted on a non-communicating miss

	PredTargets   uint64 // sum of predicted set sizes (Table 5)
	ActualTargets uint64 // sum of minimum sufficient set sizes (Table 5)

	MissLatencySum                    uint64 // cycles, CPU-visible
	CommLatencySum, NonCommLatencySum uint64

	Nacks        uint64
	DupData      uint64
	SnoopLookups uint64 // remote-request tag probes (energy model)

	PredBytesComm    uint64 // prediction-overhead bytes on communicating misses
	PredBytesNonComm uint64
}

func (s *NodeStats) merge(o *NodeStats) {
	s.Accesses += o.Accesses
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.Misses += o.Misses
	s.ReadMisses += o.ReadMisses
	s.WriteMisses += o.WriteMisses
	s.UpgradeMisses += o.UpgradeMisses
	s.Communicating += o.Communicating
	s.NonCommunicating += o.NonCommunicating
	s.Predicted += o.Predicted
	s.PredCorrect += o.PredCorrect
	for i := range s.PredCorrectByTag {
		s.PredCorrectByTag[i] += o.PredCorrectByTag[i]
	}
	s.PredWrong += o.PredWrong
	s.PredOnNonComm += o.PredOnNonComm
	s.PredTargets += o.PredTargets
	s.ActualTargets += o.ActualTargets
	s.MissLatencySum += o.MissLatencySum
	s.CommLatencySum += o.CommLatencySum
	s.NonCommLatencySum += o.NonCommLatencySum
	s.Nacks += o.Nacks
	s.DupData += o.DupData
	s.SnoopLookups += o.SnoopLookups
	s.PredBytesComm += o.PredBytesComm
	s.PredBytesNonComm += o.PredBytesNonComm
}

// AvgMissLatency returns the mean CPU-visible L2 miss latency.
func (s *NodeStats) AvgMissLatency() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.Misses)
}

// Accuracy returns the fraction of communicating misses correctly predicted.
func (s *NodeStats) Accuracy() float64 {
	if s.Communicating == 0 {
		return 0
	}
	return float64(s.PredCorrect) / float64(s.Communicating)
}

// AvgCommLatency returns the mean CPU-visible latency of communicating
// misses.
func (s *NodeStats) AvgCommLatency() float64 {
	if s.Communicating == 0 {
		return 0
	}
	return float64(s.CommLatencySum) / float64(s.Communicating)
}

// AvgNonCommLatency returns the mean CPU-visible latency of
// non-communicating misses.
func (s *NodeStats) AvgNonCommLatency() float64 {
	if s.NonCommunicating == 0 {
		return 0
	}
	return float64(s.NonCommLatencySum) / float64(s.NonCommunicating)
}

// AvgPredTargets returns the mean predicted set size per prediction
// (Table 5).
func (s *NodeStats) AvgPredTargets() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.PredTargets) / float64(s.Predicted)
}

// AvgActualTargets returns the mean minimum sufficient set size per miss
// (Table 5).
func (s *NodeStats) AvgActualTargets() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.ActualTargets) / float64(s.Misses)
}

// mshr tracks one outstanding miss. Records are recycled through
// System.mshrPool: issueMiss takes one, and finalize clears it (keeping the
// waiters backing array) and releases it once the waiters have been
// replayed. No scheduled event may hold an *mshr (DESIGN.md §11).
type mshr struct {
	line  arch.LineAddr
	kind  predictor.MissKind
	pc    uint64
	start event.Time

	predSet arch.SharerSet
	predTag predictor.Tag

	haveDirResp   bool
	sufficient    bool
	predSupply    bool
	communicating bool
	needData      bool // expect a Data message (authoritative after DirResp)
	acksNeeded    int

	dataArrived bool
	dataExcl    bool
	fromMem     bool
	provider    arch.NodeID
	acksGot     int
	ackers      arch.SharerSet
	// dirTargets is the authoritative invalidation set the directory
	// reported for a write/upgrade (paper §4.5: the reply indicates which
	// sharers were involved); used for predictor training.
	dirTargets arch.SharerSet

	predOverheadBytes uint64

	// respFrom tracks which predicted nodes have responded (Data, InvAck
	// or Nack); nackFrom the subset that Nacked; supplier the holder the
	// directory expected to forward. Together they detect the retry race
	// (see MsgGetRetry).
	respFrom arch.SharerSet
	nackFrom arch.SharerSet
	supplier arch.NodeID
	retried  bool

	// poisoned marks a fill that must be invalidated immediately after
	// install: a racing predicted invalidation hit this node while the
	// miss was outstanding and was acknowledged optimistically.
	poisoned bool

	cpuDone   func()
	cpuCalled bool
	cpuLat    event.Time // CPU-visible latency, set when cpuDone fires
	waiters   []waiter   // same-line accesses arriving while outstanding
}

// waiter is an access that met its line's outstanding miss or in-flight
// eviction; it is replayed through Access, in arrival order, once that
// resolves.
type waiter struct {
	pc    uint64
	line  arch.LineAddr
	write bool
	done  func()
}

// replay retries the parked accesses ws in order, zeroing each record so
// a kept backing array holds no stale done callback.
func (n *Node) replay(ws []waiter) {
	for i := range ws {
		w := ws[i]
		ws[i] = waiter{}
		n.Access(w.pc, w.line.Base(), w.write, w.done)
	}
}

// wbEntry is a line in the writeback buffer: evicted locally but not yet
// acknowledged by the directory. It can still service forwards.
type wbEntry struct {
	state   cache.State
	waiters []waiter
}

// Node is the per-tile cache-side coherence controller of the directory
// protocols: the shared Tile (L1 + L2 and the hit path), MSHRs, writeback
// buffer, and the prediction action of §4.5.
type Node struct {
	Tile
	sys  *System
	pred predictor.Predictor

	// mshrs holds the outstanding misses, one per line, in no particular
	// order. A node rarely has more than a handful open at once, so a
	// linear scan beats a map.
	mshrs []*mshr
	wb    map[arch.LineAddr]*wbEntry

	// memoMshr short-circuits mshrs scans for the line resolved last:
	// every reply in one transaction targets the same MSHR (in fast mode the
	// whole cascade does). Cleared when that MSHR retires.
	memoLine arch.LineAddr
	memoMshr *mshr

	// recentPredInv records predicted invalidations that arrived while
	// this node had neither a copy nor an MSHR — typically a few cycles
	// before a miss on the same line is issued. The next miss within the
	// race window is poisoned, preserving the invalidation ordering the
	// directory assumed when it judged the prediction sufficient.
	recentPredInv map[arch.LineAddr]event.Time

	stats NodeStats
}

// predInvWindow bounds how long a too-early predicted invalidation can
// poison a subsequent miss: 4*MemLatency, comfortably longer than any
// transaction.
func (n *Node) predInvWindow() event.Time { return 4 * n.sys.Cfg.MemLatency }

// predInvPruneMin is the table size below which prunePredInv does nothing:
// tiny tables cost nothing to keep, and the guard keeps the amortized prune
// cost off the common path. A var so tests can force pruning on every touch
// and pin that eviction is invisible to coherence decisions.
var predInvPruneMin = 32

// prunePredInv evicts race-window records that have already expired, keeping
// recentPredInv bounded by the lines predicted-invalidated within one
// window. Expiry is a pure function of each entry's own timestamp — whether
// an entry is deleted does not depend on when the others are visited — so
// the unordered range cannot affect simulation outcomes.
func (n *Node) prunePredInv() {
	if len(n.recentPredInv) < predInvPruneMin {
		return
	}
	now := n.sys.Sim.Now()
	w := n.predInvWindow()
	for l, at := range n.recentPredInv { //spvet:allow maprange,floatorder -- expiry reads only the entry's own timestamp
		if now-at >= w {
			delete(n.recentPredInv, l)
		}
	}
}

func newNode(sys *System, self arch.NodeID, p predictor.Predictor) *Node {
	return &Node{
		Tile:          NewTile(self, &sys.Cfg),
		sys:           sys,
		pred:          p,
		wb:            make(map[arch.LineAddr]*wbEntry),
		recentPredInv: make(map[arch.LineAddr]event.Time),
	}
}

// Predictor returns the node's destination-set predictor.
func (n *Node) Predictor() predictor.Predictor { return n.pred }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	s := n.stats
	s.Accesses, s.L1Hits, s.L2Hits = n.hits.Accesses, n.hits.L1Hits, n.hits.L2Hits
	return s
}

// Outstanding reports the number of in-flight misses (quiescence check).
func (n *Node) Outstanding() int { return len(n.mshrs) + len(n.wb) }

// OnSync delivers a captured synchronization point to the predictor
// (paper §4.1: sync primitives are exposed to the hardware).
func (n *Node) OnSync(kind predictor.SyncKind, staticID uint64) {
	e := predictor.SyncEvent{Node: n.self, Kind: kind, StaticID: staticID}
	if o := n.sys.obs; o != nil && o.Sync != nil {
		o.Sync(e)
	}
	n.pred.OnSync(e)
}

// Access performs one memory access. done runs when the access completes
// (the CPU may proceed): after the hit latency on an L1 or L2 hit (see
// Tile.AccessFast), after miss detection plus the coherence transaction on
// a miss.
func (n *Node) Access(pc uint64, addr arch.Addr, write bool, done func()) {
	if lat, ok := n.AccessFast(pc, addr, write); ok {
		n.sys.Sim.After(lat, done)
		return
	}
	line := addr.Line()
	n.miss(pc, line, n.ClassifyMiss(line, write), done)
}

// mshrFor is the memoized mshrs lookup (see memoMshr).
//
//spcoh:noalloc
func (n *Node) mshrFor(l arch.LineAddr) (*mshr, bool) {
	if n.memoMshr != nil && n.memoLine == l {
		return n.memoMshr, true
	}
	for _, m := range n.mshrs {
		if m.line == l {
			n.memoLine, n.memoMshr = l, m
			return m, true
		}
	}
	return nil, false
}

// getMSHR takes a record off the freelist. Released records are already
// clear (see finalize) apart from the waiters backing array they keep.
func (s *System) getMSHR() *mshr {
	k := len(s.mshrPool)
	if k == 0 {
		return &mshr{}
	}
	m := s.mshrPool[k-1]
	s.mshrPool = s.mshrPool[:k-1]
	return m
}

// retire drops a finished MSHR from the outstanding set.
func (n *Node) retire(ms *mshr) {
	for i, m := range n.mshrs {
		if m == ms {
			last := len(n.mshrs) - 1
			n.mshrs[i] = n.mshrs[last]
			n.mshrs[last] = nil
			n.mshrs = n.mshrs[:last]
			break
		}
	}
	if n.memoMshr == ms {
		n.memoMshr = nil
	}
}

// miss starts (or joins) a coherence transaction for line.
func (n *Node) miss(pc uint64, line arch.LineAddr, kind predictor.MissKind, done func()) {
	// An eviction of this line is still in flight: wait for the PutAck,
	// then retry the whole access.
	if e, ok := n.wb[line]; ok {
		e.waiters = append(e.waiters, waiter{pc, line, kind != predictor.ReadMiss, done})
		return
	}
	// A miss on this line is already outstanding: retry after it resolves.
	if m, ok := n.mshrFor(line); ok {
		m.waiters = append(m.waiters, waiter{pc, line, kind != predictor.ReadMiss, done})
		return
	}

	detect := n.sys.Cfg.L1Latency + n.sys.Cfg.L2TagLatency
	n.sys.Sim.AfterFn(detect, fireMissIssue, n.sys.getMissIssue(n, pc, line, kind, done))
}

// missIssue is the pooled binding of a miss-detection delay: one record per
// L2 miss rides the event queue instead of a four-capture closure.
//
//spcoh:pooled
type missIssue struct {
	n    *Node
	pc   uint64
	line arch.LineAddr
	kind predictor.MissKind
	done func()
}

func (s *System) getMissIssue(n *Node, pc uint64, line arch.LineAddr, kind predictor.MissKind, done func()) *missIssue {
	if k := len(s.missPool); k > 0 {
		r := s.missPool[k-1]
		s.missPool = s.missPool[:k-1]
		r.n, r.pc, r.line, r.kind, r.done = n, pc, line, kind, done
		return r
	}
	return &missIssue{n: n, pc: pc, line: line, kind: kind, done: done}
}

//spcoh:noalloc
func fireMissIssue(a any) {
	r := a.(*missIssue)
	n, pc, line, kind, done := r.n, r.pc, r.line, r.kind, r.done
	r.n, r.done = nil, nil // release references before reuse
	n.sys.missPool = append(n.sys.missPool, r)
	if n.sys.Fast {
		// Fast mode: the entire coherence transaction executes as one
		// atomic cascade at this real-clock instant. Only the CPU-visible
		// completion (the MSHR's cpuDone) rides the real engine afterwards.
		n.sys.casc.Begin(n.sys.Sim.Now())
		n.issueMiss(pc, line, kind, done)
		n.sys.casc.Drain()
		return
	}
	n.issueMiss(pc, line, kind, done)
}

func (n *Node) issueMiss(pc uint64, line arch.LineAddr, kind predictor.MissKind, done func()) {
	// The detection delay may have raced with another access creating an
	// MSHR or WB entry meanwhile; re-check.
	if _, ok := n.wb[line]; ok {
		n.miss(pc, line, kind, done)
		return
	}
	if _, ok := n.mshrFor(line); ok {
		n.miss(pc, line, kind, done)
		return
	}

	n.stats.Misses++
	switch kind {
	case predictor.ReadMiss:
		n.stats.ReadMisses++
	case predictor.WriteMiss:
		n.stats.WriteMisses++
	default:
		n.stats.UpgradeMisses++
	}

	pm := predictor.Miss{Node: n.self, Line: line, PC: pc, Kind: kind}
	set, tag := n.pred.Predict(pm)
	set = set.Remove(n.self)

	m := n.sys.getMSHR()
	m.line, m.kind, m.pc, m.start = line, kind, pc, n.sys.clockNow()
	m.predSet, m.predTag, m.cpuDone = set, tag, done
	m.needData = kind != predictor.UpgradeMiss
	m.provider, m.supplier = arch.None, arch.None
	if at, ok := n.recentPredInv[line]; ok {
		delete(n.recentPredInv, line)
		if n.sys.Sim.Now()-at < n.predInvWindow() {
			m.poisoned = true
		}
	}
	n.prunePredInv()
	n.mshrs = append(n.mshrs, m)
	n.memoLine, n.memoMshr = line, m

	// Prediction action (§4.5): multicast to the predicted nodes...
	reqKind := MsgPredGetS
	dirKind := MsgGetS
	if kind != predictor.ReadMiss {
		reqKind = MsgPredGetM
		dirKind = MsgGetM
	}
	set.ForEach(func(p arch.NodeID) {
		m.predOverheadBytes += uint64(ControlBytes)
		n.send(&Msg{Kind: reqKind, Dst: p, Line: line, Requester: n.self,
			MissKind: kind, PC: pc})
	})
	if !set.Empty() {
		n.stats.Predicted++
		n.stats.PredTargets += uint64(set.Count())
	}
	// ...and the request to the home directory, carrying the predicted set.
	n.send(&Msg{Kind: dirKind, Dst: n.sys.Cfg.Home(line), Line: line, Requester: n.self,
		Pred: set, HadLine: kind == predictor.UpgradeMiss, MissKind: kind, PC: pc})
}

func (n *Node) send(m *Msg) {
	m.Src = n.self
	n.sys.send(m)
}

// handle processes a node-bound coherence message.
func (n *Node) handle(m *Msg) {
	switch m.Kind {
	case MsgPredGetS:
		n.handlePredGetS(m)
	case MsgPredGetM:
		n.handlePredGetM(m)
	case MsgFwdGetS:
		n.handleFwdGetS(m)
	case MsgFwdGetM:
		n.handleFwdGetM(m)
	case MsgInv:
		n.handleInv(m)
	case MsgData:
		n.handleData(m)
	case MsgInvAck:
		n.handleInvAck(m)
	case MsgNack:
		n.handleNack(m)
	case MsgDirResp:
		n.handleDirResp(m)
	case MsgPutAck:
		n.handlePutAck(m)
	default:
		panic(fmt.Sprintf("node %d: unexpected message %v", n.self, m.Kind))
	}
}

func (n *Node) trainExternal(m *Msg) {
	if t, ok := n.pred.(externalTrainer); ok && m.Requester != n.self {
		t.TrainExternal(m.Line, m.Requester)
	}
}

// localState returns the effective protocol state of a line at this node,
// looking through both the cache and the writeback buffer.
func (n *Node) localState(l arch.LineAddr) cache.State {
	if st := n.l2.Peek(l); st.Valid() {
		return st
	}
	if e, ok := n.wb[l]; ok {
		return e.state
	}
	return cache.Invalid
}

// handlePredGetS services a predicted read request (§4.5): forward if the
// line is held in E, M or F; otherwise Nack. A node with its own miss
// outstanding on the line cannot forward and Nacks.
func (n *Node) handlePredGetS(m *Msg) {
	n.stats.SnoopLookups++
	n.trainExternal(m)
	if _, ok := n.mshrFor(m.Line); ok {
		n.sendAfter(n.sys.Cfg.L2TagLatency, &Msg{Kind: MsgNack, Dst: m.Requester, Line: m.Line, Requester: m.Requester})
		return
	}
	st := n.localState(m.Line)
	if !st.CanForward() {
		n.sendAfter(n.sys.Cfg.L2TagLatency, &Msg{Kind: MsgNack, Dst: m.Requester, Line: m.Line, Requester: m.Requester})
		return
	}
	// Forward a copy; downgrade to Shared. A Modified line is written back
	// to the home (memory update on M->S, as in MESIF).
	n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgData, Dst: m.Requester, Line: m.Line,
		Requester: m.Requester, MissKind: m.MissKind})
	if st == cache.Modified {
		n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgWriteback, Dst: n.sys.Cfg.Home(m.Line), Line: m.Line, Requester: n.self})
	}
	n.l2.SetState(m.Line, cache.Shared)
	// Sharing-state update to the directory (accounting; the authoritative
	// transition happens when the directory processes the request).
	n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgDirUpd, Dst: n.sys.Cfg.Home(m.Line), Line: m.Line, Requester: m.Requester})
}

// handlePredGetM services a predicted write request: forward and invalidate
// if holding in a forwardable state; otherwise invalidate (when present)
// and acknowledge. Invalidations are always acknowledged — even when the
// copy is already gone — so the requester's ack count, which the directory
// derives from its serialized view, is always satisfied despite races with
// other predicted invalidations.
func (n *Node) handlePredGetM(m *Msg) {
	n.stats.SnoopLookups++
	n.trainExternal(m)
	if ms, ok := n.mshrFor(m.Line); ok {
		// Our own miss on this line is in flight: acknowledge the
		// invalidation now and poison the eventual fill.
		ms.poisoned = true
		n.sendAfter(n.sys.Cfg.L2TagLatency, &Msg{Kind: MsgInvAck, Dst: m.Requester, Line: m.Line, Requester: m.Requester})
		return
	}
	st := n.localState(m.Line)
	switch {
	case st.CanForward():
		n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgData, Dst: m.Requester, Line: m.Line,
			Requester: m.Requester, MissKind: m.MissKind})
		n.Invalidate(m.Line)
		n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgDirUpd, Dst: n.sys.Cfg.Home(m.Line), Line: m.Line, Requester: m.Requester})
	default:
		if !st.Valid() {
			// Nothing here yet: a miss of ours may be about to issue and
			// would fill after the requester's transaction serializes.
			n.prunePredInv()
			n.recentPredInv[m.Line] = n.sys.Sim.Now()
		}
		n.Invalidate(m.Line)
		n.sendAfter(n.sys.Cfg.L2TagLatency, &Msg{Kind: MsgInvAck, Dst: m.Requester, Line: m.Line, Requester: m.Requester})
	}
}

// handleFwdGetS services a directory-issued forward. The directory's
// serialized view guarantees the data is (semantically) here, possibly in
// the writeback buffer or just-invalidated by a racing predicted request;
// the node always responds with data.
func (n *Node) handleFwdGetS(m *Msg) {
	n.stats.SnoopLookups++
	n.trainExternal(m)
	st := n.localState(m.Line)
	n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgData, Dst: m.Requester, Line: m.Line,
		Requester: m.Requester, MissKind: m.MissKind})
	if st == cache.Modified {
		n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgWriteback, Dst: n.sys.Cfg.Home(m.Line), Line: m.Line, Requester: n.self})
	}
	if st.CanForward() {
		n.l2.SetState(m.Line, cache.Shared)
	}
}

// handleFwdGetM services a directory-issued forward-and-invalidate.
func (n *Node) handleFwdGetM(m *Msg) {
	n.stats.SnoopLookups++
	n.trainExternal(m)
	n.sendAfter(n.sys.Cfg.L2HitLatency(), &Msg{Kind: MsgData, Dst: m.Requester, Line: m.Line,
		Requester: m.Requester, MissKind: m.MissKind})
	n.Invalidate(m.Line)
}

// handleInv invalidates a shared copy; the ack goes to the requester.
func (n *Node) handleInv(m *Msg) {
	n.stats.SnoopLookups++
	n.trainExternal(m)
	n.Invalidate(m.Line)
	n.sendAfter(n.sys.Cfg.L2TagLatency, &Msg{Kind: MsgInvAck, Dst: m.Requester, Line: m.Line, Requester: m.Requester})
}

func (n *Node) handleData(m *Msg) {
	ms, ok := n.mshrFor(m.Line)
	if !ok {
		n.stats.DupData++
		return
	}
	if !m.FromMem && m.Src != n.self {
		ms.respFrom = ms.respFrom.Add(m.Src)
		// A cache that sends Data for a write/upgrade has invalidated
		// itself; its Data doubles as an invalidation ack. This also
		// covers the race where the directory expected a plain InvAck but
		// the holder had silently acquired a forwardable state.
		if ms.kind != predictor.ReadMiss && !ms.ackers.Contains(m.Src) {
			ms.acksGot++
			ms.ackers = ms.ackers.Add(m.Src)
		}
	}
	if ms.dataArrived {
		n.stats.DupData++
		n.checkComplete(ms)
		return
	}
	ms.dataArrived = true
	ms.dataExcl = m.Excl
	ms.fromMem = m.FromMem
	if !m.FromMem && m.Src != n.self {
		ms.provider = m.Src
	}
	n.checkComplete(ms)
}

func (n *Node) handleInvAck(m *Msg) {
	ms, ok := n.mshrFor(m.Line)
	if !ok {
		return // stale ack from an already-finalized race; harmless
	}
	ms.acksGot++
	ms.ackers = ms.ackers.Add(m.Src)
	ms.respFrom = ms.respFrom.Add(m.Src)
	n.checkComplete(ms)
}

func (n *Node) handleNack(m *Msg) {
	n.stats.Nacks++
	if ms, ok := n.mshrFor(m.Line); ok {
		ms.predOverheadBytes += uint64(ControlBytes)
		ms.respFrom = ms.respFrom.Add(m.Src)
		ms.nackFrom = ms.nackFrom.Add(m.Src)
		n.checkComplete(ms)
	}
}

func (n *Node) handleDirResp(m *Msg) {
	ms, ok := n.mshrFor(m.Line)
	if !ok {
		return
	}
	ms.haveDirResp = true
	ms.sufficient = m.Excl
	ms.communicating = m.HadLine
	ms.acksNeeded = m.AckCount
	ms.needData = m.NeedData
	ms.predSupply = m.PredSupply
	if m.PredSupply {
		ms.supplier = m.Supplier
	}
	if ms.kind != predictor.ReadMiss {
		ms.dirTargets = m.Pred
	}
	n.checkComplete(ms)
}

// checkComplete fires the CPU callback and finalizes the transaction when
// all expected responses have arrived.
func (n *Node) checkComplete(ms *mshr) {
	// CPU-visible completion: reads proceed on first data (paper §4.5);
	// writes wait for the directory verdict, ownership data and all acks.
	readReady := ms.kind == predictor.ReadMiss && ms.dataArrived
	writeReady := ms.kind != predictor.ReadMiss && ms.haveDirResp &&
		ms.acksGot >= ms.acksNeeded && (ms.dataArrived || !ms.needData)
	if !ms.cpuCalled && (readReady || writeReady) {
		ms.cpuCalled = true
		ms.cpuLat = n.sys.clockNow() - ms.start
		lat := uint64(ms.cpuLat)
		n.stats.MissLatencySum += lat
		// Communicating status is known reliably only after DirResp; for
		// reads, infer from the data source when DirResp is still in
		// flight (a cache provider means communicating).
		if ms.haveDirResp && ms.communicating || (!ms.haveDirResp && ms.provider != arch.None) {
			n.stats.CommLatencySum += lat
		} else {
			n.stats.NonCommLatencySum += lat
		}
		if n.sys.Fast {
			// The cascade resolves the transaction at one real instant;
			// surface the completion to the CPU at its virtual time. The
			// event holds the callback, not the MSHR, which finalize may
			// release before it fires.
			n.sys.Sim.At(ms.start+ms.cpuLat, ms.cpuDone)
		} else {
			ms.cpuDone()
		}
	}
	// Retry race (see MsgGetRetry): the directory's data plan relied on a
	// predicted holder, but that holder turned out unable to forward —
	// it Nacked (read), or responded without data while data is still
	// missing (write). The home repairs via a directory-issued forward.
	if ms.haveDirResp && ms.predSupply && !ms.retried && ms.supplier != arch.None &&
		(ms.nackFrom.Contains(ms.supplier) ||
			(ms.needData && !ms.dataArrived && ms.respFrom.Contains(ms.supplier) && ms.provider != ms.supplier)) {
		ms.retried = true
		n.send(&Msg{Kind: MsgGetRetry, Dst: n.sys.Cfg.Home(ms.line), Line: ms.line,
			Requester: n.self, MissKind: ms.kind})
		return
	}
	// Transaction completion additionally requires the directory verdict.
	if ms.cpuCalled && ms.haveDirResp && (ms.dataArrived || !ms.needData) && ms.acksGot >= ms.acksNeeded {
		n.finalize(ms)
	}
}

// finalize installs the line, unblocks the directory, trains the predictor
// and replays deferred/waiting work.
func (n *Node) finalize(ms *mshr) {
	n.retire(ms)

	// Install the fill, unless the line left as a victim while this
	// upgrade was in flight: a read proceeds on its first data, and its
	// later fill can evict the line the next access is upgrading. The home
	// orders that Put after this transaction and drops the copy, so
	// installing it would leave a copy the home does not register. The
	// victim left clean (PutS or PutE), but the completed write made its
	// data dirty, so that data goes home as a writeback, which the home
	// only accounts.
	wb, evicting := n.wb[ms.line]
	switch {
	case evicting:
		if ms.kind != predictor.ReadMiss && !wb.state.Dirty() {
			n.send(&Msg{Kind: MsgWriteback, Dst: n.sys.Cfg.Home(ms.line), Line: ms.line, Requester: n.self})
		}
	case ms.kind == predictor.ReadMiss:
		st := cache.Forward
		if ms.dataExcl {
			st = cache.Exclusive
		}
		n.fill(ms.line, st)
	default:
		n.fill(ms.line, cache.Modified)
	}

	// Unblock the home so queued transactions may proceed.
	n.send(&Msg{Kind: MsgUnblock, Dst: n.sys.Cfg.Home(ms.line), Line: ms.line, Requester: n.self})

	// Statistics and training.
	if ms.communicating {
		n.stats.Communicating++
	} else {
		n.stats.NonCommunicating++
	}
	actual := ms.ackers.Union(ms.dirTargets)
	if ms.provider != arch.None {
		actual = actual.Add(ms.provider)
	}
	minSufficient := actual.Count()
	if minSufficient == 0 {
		minSufficient = 1 // memory counts as one destination (Table 5 note)
	}
	n.stats.ActualTargets += uint64(minSufficient)

	if !ms.predSet.Empty() {
		if ms.communicating {
			if ms.sufficient {
				n.stats.PredCorrect++
				n.stats.PredCorrectByTag[ms.predTag]++
			} else {
				n.stats.PredWrong++
			}
			n.stats.PredBytesComm += ms.predOverheadBytes
		} else {
			n.stats.PredOnNonComm++
			n.stats.PredBytesNonComm += ms.predOverheadBytes
		}
	}

	inval := ms.ackers.Union(ms.dirTargets)
	if ms.kind != predictor.ReadMiss && ms.provider != arch.None {
		inval = inval.Add(ms.provider)
	}
	m := predictor.Miss{Node: n.self, Line: ms.line, PC: ms.pc, Kind: ms.kind}
	o := predictor.Outcome{Provider: ms.provider, Invalidated: inval, Communicating: ms.communicating}
	if obs := n.sys.obs; obs != nil && obs.Miss != nil {
		predicted := !ms.predSet.Empty()
		obs.Miss(m, o, ms.cpuLat, predicted, predicted && ms.communicating && ms.sufficient)
	}
	n.pred.Train(m, o)

	// A racing predicted invalidation was acknowledged mid-miss: the fill
	// is immediately invalid.
	if ms.poisoned {
		n.Invalidate(ms.line)
	}

	// Replay same-line accesses that waited on this transaction, then
	// clear the record and return it to the pool.
	n.replay(ms.waiters)
	*ms = mshr{waiters: ms.waiters[:0]}
	n.sys.mshrPool = append(n.sys.mshrPool, ms)
}

// fill installs a line (Tile.Fill) and issues the eviction transaction for
// the L2 victim it displaces.
func (n *Node) fill(l arch.LineAddr, st cache.State) {
	v, evicted := n.Fill(l, st)
	if !evicted {
		return
	}
	n.wb[v.Addr] = &wbEntry{state: v.State}
	kind := MsgPutS
	switch v.State {
	case cache.Modified:
		kind = MsgPutM
	case cache.Exclusive, cache.Forward:
		kind = MsgPutE
	case cache.Shared, cache.Invalid:
		// Shared keeps the preset PutS; Insert never yields an Invalid victim.
	}
	n.send(&Msg{Kind: kind, Dst: n.sys.Cfg.Home(v.Addr), Line: v.Addr, Requester: n.self})
}

func (n *Node) handlePutAck(m *Msg) {
	e, ok := n.wb[m.Line]
	if !ok {
		return
	}
	delete(n.wb, m.Line)
	n.replay(e.waiters)
}

func (n *Node) sendAfter(d event.Time, m *Msg) {
	m.Src = n.self
	n.sys.sendAfter(d, m)
}
