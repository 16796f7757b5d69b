package protocol

import (
	"fmt"
	"sort"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
)

// Config sizes the coherent memory system (defaults = paper Table 4).
type Config struct {
	Nodes int

	L1 cache.Config
	L2 cache.Config

	L1Latency     event.Time // load-to-use
	L2TagLatency  event.Time
	L2DataLatency event.Time
	DirLatency    event.Time // directory slice access
	MemLatency    event.Time // main memory round trip from the home tile

	NoC noc.Config
}

// DefaultConfig returns the paper's Table 4 machine.
func DefaultConfig() Config {
	return Config{
		Nodes:         16,
		L1:            cache.Config{Bytes: 16 << 10, Ways: 1},
		L2:            cache.Config{Bytes: 1 << 20, Ways: 8},
		L1Latency:     2,
		L2TagLatency:  2,
		L2DataLatency: 6,
		DirLatency:    16,
		MemLatency:    150,
		NoC:           noc.DefaultConfig(),
	}
}

// ConfigFor returns the paper's machine scaled to a different core count.
// Supported sizes are perfect squares up to arch.MaxNodes = 256 — a 16x16
// mesh (the mesh stays square); cache and latency parameters are
// unchanged.
func ConfigFor(nodes int) (Config, error) {
	side := 0
	for s := 1; s*s <= nodes; s++ {
		if s*s == nodes {
			side = s
		}
	}
	if side == 0 || nodes > arch.MaxNodes {
		return Config{}, fmt.Errorf("protocol: unsupported node count %d (need a perfect square <= %d)", nodes, arch.MaxNodes)
	}
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Width, cfg.NoC.Height = side, side
	return cfg, nil
}

// L2HitLatency is the total L2 access time (tag + data).
func (c *Config) L2HitLatency() event.Time { return c.L2TagLatency + c.L2DataLatency }

// Home returns the tile that owns a line: its directory slice in the
// directory protocols, its memory controller under snooping. Lines are
// interleaved across the tiles, as in the paper's distributed directory.
// On a power-of-two tile count (every built-in machine) the interleaving
// is a mask: Home runs once or more per message, and a snoop miss asks it
// at each of its deliveries, so the 64-bit divide stays off that path.
// The receiver is a pointer because with a value receiver every inlined
// call copied the whole Config (a runtime.duffcopy call per snoop).
//
//spcoh:noalloc
func (c *Config) Home(l arch.LineAddr) arch.NodeID {
	n := uint64(c.Nodes)
	if n&(n-1) == 0 {
		return arch.NodeID(uint64(l) & (n - 1))
	}
	return arch.NodeID(uint64(l) % n)
}

// System is a full coherent CMP: one Node (core-side controller) and one
// DirSlice (directory home slice) per tile, connected by the mesh.
type System struct {
	Cfg   Config
	Sim   *event.Sim
	Net   *noc.Network
	Nodes []*Node
	Dirs  []*DirSlice

	// Fast selects the fast functional mode (DESIGN.md §15): each miss's
	// coherence transaction executes as one atomic virtual-time cascade
	// (casc) at a single real-clock instant, with contention-free NoC
	// latencies; only the CPU-visible completion is deferred to the real
	// clock. Protocol state machines and all count statistics are shared
	// with the detailed mode and stay exact.
	Fast bool
	casc event.Cascade

	// Debug, when set, observes every message at delivery time (protocol
	// debugging aid; nil in normal operation).
	Debug func(now event.Time, m Msg)

	// obs, when set, feeds the run-time metrics layer. Nil — the default —
	// costs one branch per message/miss/sync.
	obs *Obs

	// Freelists for the pooled scheduling records of the hot paths: every
	// in-flight message, delayed send, miss issue, directory access and
	// memory fetch rides a reused record through the event queue instead of
	// a fresh closure, and every outstanding miss reuses a released MSHR
	// (DESIGN.md §11). The simulation is single-threaded, so plain slice
	// stacks suffice.
	msgPool  []*delivery
	missPool []*missIssue
	getPool  []*dirGet
	memPool  []*memFetch
	mshrPool []*mshr
}

// delivery carries one in-flight message through the scheduler. A record is
// acquired at send time, optionally parked through a source-side delay
// (sendAfter), injected into the NoC, and released at dispatch.
//
//spcoh:pooled
type delivery struct {
	s    *System
	m    Msg
	sent event.Time // injection time, for the metrics observer
}

// getDelivery takes a record off the freelist and copies *m into it: the
// one copy of a message on its way out (DESIGN.md §11).
func (s *System) getDelivery(m *Msg) *delivery {
	if k := len(s.msgPool); k > 0 {
		d := s.msgPool[k-1]
		s.msgPool = s.msgPool[:k-1]
		d.m = *m
		return d
	}
	return &delivery{s: s, m: *m}
}

// deliverMsg fires at NoC arrival: it dispatches the message in place and
// frees the record only once dispatch returns (handlers read the message by
// pointer; sends they make meanwhile take other records).
//
//spcoh:noalloc
func deliverMsg(a any) {
	d := a.(*delivery)
	s := d.s
	if s.obs != nil && s.obs.Message != nil {
		s.obs.Message(d.m.Kind, s.clockNow()-d.sent)
	}
	s.dispatch(&d.m)
	s.msgPool = append(s.msgPool, d)
}

// transmitMsg fires when a sendAfter source-side delay elapses.
//
//spcoh:noalloc
func transmitMsg(a any) {
	d := a.(*delivery)
	d.s.transmit(d)
}

// Obs carries the metrics hooks of the directory protocol. Every field may
// be nil independently; hooks fire synchronously inside the simulation at
// the cycle the observed fact becomes true.
type Obs struct {
	// Message fires when a coherence message is delivered, with its
	// network latency (injection to delivery).
	Message func(kind MsgKind, lat event.Time)
	// Miss fires when a finished L2 miss is finalized. lat is the
	// CPU-visible latency; predicted/correct describe the prediction
	// attempt (correct is meaningful only for predicted communicating
	// misses, mirroring NodeStats.PredCorrect).
	Miss func(node arch.NodeID, kind predictor.MissKind, lat event.Time, comm, predicted, correct bool)
	// Sync fires when a node crosses a synchronization point.
	Sync func(node arch.NodeID, kind predictor.SyncKind)
}

// SetObserver attaches (or, with nil, detaches) the metrics hooks.
func (s *System) SetObserver(o *Obs) { s.obs = o }

// New assembles a system. preds supplies one predictor per node; nil means
// the baseline directory protocol everywhere.
func New(sim *event.Sim, cfg Config, preds []predictor.Predictor) *System {
	if cfg.Nodes != cfg.NoC.Nodes() {
		panic("protocol: Config.Nodes must match the mesh size")
	}
	s := &System{Cfg: cfg, Sim: sim, Net: noc.New(sim, cfg.NoC)}
	s.Nodes = make([]*Node, cfg.Nodes)
	s.Dirs = make([]*DirSlice, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var p predictor.Predictor = predictor.Null{}
		if preds != nil && preds[i] != nil {
			p = preds[i]
		}
		s.Nodes[i] = newNode(s, arch.NodeID(i), p)
		s.Dirs[i] = newDirSlice(s, arch.NodeID(i))
	}
	return s
}

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

// send routes a message over the NoC and dispatches it on arrival. It
// copies *m before returning, so callers may pass a stack literal.
//
//spcoh:noalloc
func (s *System) send(m *Msg) {
	if s.Fast {
		s.fastShip(0, m)
		return
	}
	s.transmit(s.getDelivery(m)) //spvet:allow noalloc -- inlined getDelivery: cold-path freelist refill
}

//spcoh:noalloc
func (s *System) transmit(d *delivery) {
	d.sent = s.Sim.Now()
	s.Net.SendFn(d.m.Src, d.m.Dst, d.m.Kind.Bytes(), deliverMsg, d)
}

// sendAfter routes a message after a local processing delay at the source.
//
//spcoh:noalloc
func (s *System) sendAfter(d event.Time, m *Msg) {
	if s.Fast {
		s.fastShip(d, m)
		return
	}
	s.Sim.AfterFn(d, transmitMsg, s.getDelivery(m)) //spvet:allow noalloc -- inlined getDelivery: cold-path freelist refill
}

// fastShip is the fast-mode counterpart of send/sendAfter: it accounts the
// packet on the NoC (contention-free), and schedules delivery on the active
// cascade at source delay + network latency in virtual time.
//
//spcoh:noalloc
func (s *System) fastShip(srcDelay event.Time, m *Msg) {
	d := s.getDelivery(m) //spvet:allow noalloc -- inlined getDelivery: cold-path freelist refill
	lat := s.Net.FastSend(m.Src, m.Dst, m.Kind.Bytes())
	d.sent = s.casc.Now() + srcDelay
	s.casc.At(d.sent+lat, deliverMsg, d)
}

// dispatch hands a delivered message to its handler. Handlers read it by
// pointer and must copy *m to keep it past their return.
func (s *System) dispatch(m *Msg) {
	if s.Debug != nil {
		s.Debug(s.clockNow(), *m)
	}
	switch m.Kind {
	case MsgGetS, MsgGetM, MsgPutS, MsgPutE, MsgPutM, MsgUnblock, MsgDirUpd, MsgWriteback, MsgGetRetry:
		s.Dirs[m.Dst].handle(m)
	default:
		s.Nodes[m.Dst].handle(m)
	}
}

// Stats aggregates per-node statistics across the system.
func (s *System) Stats() NodeStats {
	var total NodeStats
	for _, n := range s.Nodes {
		st := n.Stats()
		total.merge(&st)
	}
	return total
}

// NetStats returns the interconnect statistics.
func (s *System) NetStats() noc.Stats { return s.Net.Stats() }

// CheckCoherence validates the directory/cache invariants at quiescence
// (no in-flight transactions): every directory entry's view matches the
// corresponding L2 states. It returns hard violations (genuine coherence
// breaks) and soft ones (stale registrations left by benign predicted-
// invalidation races; see dir.go). Baseline (non-predicting) runs must
// produce neither.
//
// The directory side walks every entry and probes only its registered
// holders (checkDirSide), counting the registered holders that have a
// valid copy, home entries only. Those copies are distinct (one home entry
// per line, one owner or a set of distinct sharers per entry), so their
// number is at most the number of resident L2 lines, Σ Occupancy, an O(1)
// counter per cache. When the two are equal every resident copy is
// registered by its home slice, so there is no stray copy and no L2 array
// is swept. Only on a mismatch does strays sweep every L2 for the copies
// the directory does not register.
func (s *System) CheckCoherence() (hard, soft []string) {
	var a audit
	for _, d := range s.Dirs {
		d.checkDirSide(&a)
	}
	resident := 0
	for _, n := range s.Nodes {
		resident += n.l2.Occupancy()
	}
	if a.registered != resident {
		s.strays(&a)
	}
	// A canonical (line, node) sort makes the report independent of the
	// order the table slots and L2 ways were walked in.
	return renderViols(a.hard), renderViols(a.soft)
}

// audit collects CheckCoherence's violations and its count of registered
// valid copies.
type audit struct {
	hard, soft []dirViol
	registered int
}

// strays sweeps every L2 array for valid copies their home slice does not
// register: the line is U or absent there, E at another owner, or S
// without this node among the sharers. Registered copies in a forbidden
// state are checkDirSide's to report.
func (s *System) strays(a *audit) {
	for _, n := range s.Nodes {
		id := n.self
		n.l2.ForEachValid(func(l arch.LineAddr, st cache.State) {
			e := s.Dirs[s.Cfg.Home(l)].lookup(l)
			switch {
			case e == nil || e.state == dirU:
				a.hard = append(a.hard, dirViol{l, id,
					fmt.Sprintf("line %#x: dir U but node %d has %v", uint64(l), id, st)})
			case e.state == dirE && id != e.owner:
				a.hard = append(a.hard, dirViol{l, id,
					fmt.Sprintf("line %#x: dir E (owner %d) but node %d has %v", uint64(l), e.owner, id, st)})
			case e.state == dirS && !e.sharers.Contains(id):
				a.hard = append(a.hard, dirViol{l, id,
					fmt.Sprintf("line %#x: dir S %v but node %d has %v", uint64(l), e.sharers, id, st)})
			}
		})
	}
}

// dirViol is one coherence violation, keyed for deterministic ordering.
// node is arch.None for line-level (per-entry) violations.
type dirViol struct {
	line arch.LineAddr
	node arch.NodeID
	msg  string
}

func renderViols(v []dirViol) []string {
	if len(v) == 0 {
		return nil
	}
	sort.Slice(v, func(i, j int) bool {
		if v[i].line != v[j].line {
			return v[i].line < v[j].line
		}
		if v[i].node != v[j].node {
			return v[i].node < v[j].node
		}
		return v[i].msg < v[j].msg
	})
	out := make([]string, len(v))
	for i := range v {
		out[i] = v[i].msg
	}
	return out
}
