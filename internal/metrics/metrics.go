package metrics

import (
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
)

// Config sizes a Collector.
type Config struct {
	// EpochCycles is the sampling epoch width in cycles. Must be > 0.
	EpochCycles event.Time
	// Links and Nodes size the per-link and per-node cells of each epoch.
	Links int
	Nodes int
}

// linkAdd is a busy-cycle credit for a future epoch: link occupancy
// reserved past the current epoch boundary is held here until the target
// epoch's row opens, so intervals split exactly across boundaries.
type linkAdd struct {
	epoch  uint64
	link   int
	cycles uint64
}

// Collector accumulates the run-time metrics of one simulation into epoch
// rows. It implements noc.Observer; its remaining hooks are a protocol.Obs
// (Obs) and a Step observer (Attach).
//
// The collector never schedules events: epochs roll lazily when a hook
// fires in a later epoch, and Finalize materializes any trailing empty
// epochs. A run with the collector attached therefore fires exactly the
// same event sequence as a run without.
type Collector struct {
	sim *event.Sim
	cfg Config

	rows    []EpochRow
	cur     EpochRow
	curIdx  uint64
	pending []linkAdd // busy cycles owed to epochs after curIdx
	done    bool
}

// NewCollector returns a collector for the given simulator and shape. It
// panics on a zero epoch width (a disabled collector is simply not
// created).
func NewCollector(sim *event.Sim, cfg Config) *Collector {
	if cfg.EpochCycles == 0 {
		panic("metrics: zero epoch width")
	}
	c := &Collector{sim: sim, cfg: cfg}
	c.cur = c.newRow(0)
	return c
}

// Attach registers the collector's event-engine and NoC hooks. The
// protocol-level hooks (Obs) are attached with the system's SetObserver.
func (c *Collector) Attach(net *noc.Network) {
	c.sim.SetObserver(c.onStep)
	net.SetObserver(c)
}

// Obs returns the protocol hooks feeding this collector, for either
// coherence protocol. Snooping reports its broadcasts as requests and its
// responses as data, so the invalidate and ack classes stay empty; it never
// predicts, so its misses never contribute to the predictor timeline, and
// it never fires Sync.
func (c *Collector) Obs() *protocol.Obs {
	return &protocol.Obs{
		Message: func(kind protocol.MsgKind, lat event.Time) {
			c.message(ClassOf(kind), uint64(lat))
		},
		Miss: func(m predictor.Miss, o predictor.Outcome, lat event.Time, predicted, correct bool) {
			c.miss(int(m.Node), uint64(lat), o.Communicating, predicted, correct)
		},
		Sync: func(e predictor.SyncEvent) {
			c.sync(int(e.Node))
		},
	}
}

func (c *Collector) newRow(idx uint64) EpochRow {
	ep := uint64(c.cfg.EpochCycles)
	row := EpochRow{
		Epoch:       idx,
		Start:       idx * ep,
		End:         idx*ep + ep,
		LinkBusy:    make([]uint64, c.cfg.Links),
		LinkStall:   make([]uint64, c.cfg.Links),
		DeliveryLat: make([]uint64, NumLatBuckets),
		ClassCount:  make([]uint64, NumClasses),
		ClassLat:    make([][]uint64, NumClasses),
		NodeMisses:  make([]uint64, c.cfg.Nodes),
		NodeSyncs:   make([]uint64, c.cfg.Nodes),
	}
	for cl := range row.ClassLat {
		row.ClassLat[cl] = make([]uint64, NumLatBuckets)
	}
	// Drain the busy-cycle credits owed to this epoch, compacting the rest
	// in place (insertion order is deterministic, so so is this).
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.epoch == idx {
			row.LinkBusy[p.link] += p.cycles
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
	return row
}

// roll closes epochs until the one containing cycle `now` is current.
func (c *Collector) roll(now event.Time) {
	idx := uint64(now) / uint64(c.cfg.EpochCycles)
	for c.curIdx < idx {
		c.rows = append(c.rows, c.cur)
		c.curIdx++
		c.cur = c.newRow(c.curIdx)
	}
}

// onStep is the event-engine hook: it fires once per fired event, after
// the clock advances, and drives epoch rolling for the whole collector
// (every other hook fires inside some event, so the clock has already
// rolled the epoch forward by the time they run).
func (c *Collector) onStep(now event.Time, queueDepth int) {
	c.roll(now)
	c.cur.Fired++
	c.cur.QueueDepth = queueDepth
	if queueDepth > c.cur.QueueMax {
		c.cur.QueueMax = queueDepth
	}
}

// LinkBusy implements noc.Observer: occupancy of link l for [from, to),
// split exactly across epoch boundaries.
func (c *Collector) LinkBusy(l int, from, to event.Time) {
	ep := uint64(c.cfg.EpochCycles)
	lo, hi := uint64(from), uint64(to)
	for lo < hi {
		idx := lo / ep
		end := (idx + 1) * ep
		if end > hi {
			end = hi
		}
		cycles := end - lo
		switch {
		case idx == c.curIdx:
			c.cur.LinkBusy[l] += cycles
		case idx > c.curIdx:
			c.pending = append(c.pending, linkAdd{epoch: idx, link: l, cycles: cycles})
		default:
			// Occupancy cannot start before the injection cycle, which is in
			// the current epoch; keep the total right regardless.
			c.cur.LinkBusy[l] += cycles
		}
		lo = end
	}
}

// LinkStall implements noc.Observer: stall cycles attributed to the epoch
// in which the stalled packet was injected.
func (c *Collector) LinkStall(l int, cycles event.Time) {
	c.cur.LinkStall[l] += uint64(cycles)
}

// Deliver implements noc.Observer: one endpoint delivery at the current
// cycle with the given latency.
func (c *Collector) Deliver(lat event.Time) {
	c.cur.Delivered++
	c.cur.DeliveryLat[LatBucket(uint64(lat))]++
}

func (c *Collector) message(class MsgClass, lat uint64) {
	c.cur.ClassCount[class]++
	c.cur.ClassLat[class][LatBucket(lat)]++
}

func (c *Collector) miss(node int, lat uint64, comm, predicted, correct bool) {
	c.cur.NodeMisses[node]++
	c.cur.Misses++
	c.cur.MissLatSum += lat
	if comm {
		c.cur.CommMisses++
	}
	if predicted {
		c.cur.Predicted++
	}
	if correct {
		c.cur.PredCorrect++
	}
}

func (c *Collector) sync(node int) {
	c.cur.NodeSyncs[node]++
}

// Finalize closes the collector at the run's final cycle and returns the
// series. Epochs between the last observed activity and endCycle are
// materialized (empty), the final row is truncated to endCycle, and any
// busy cycles reserved past the end of the run are clipped into the final
// row so total link occupancy is preserved. Finalize detaches nothing;
// the simulation is over.
func (c *Collector) Finalize(endCycle event.Time) *Series {
	if c.done {
		panic("metrics: Finalize called twice")
	}
	c.done = true
	if endCycle > 0 {
		c.roll(endCycle - 1)
	}
	// Clip occupancy owed to epochs past the end into the final row.
	for _, p := range c.pending {
		c.cur.LinkBusy[p.link] += p.cycles
	}
	c.pending = nil
	if end := uint64(endCycle); end > c.cur.Start && end < c.cur.End {
		c.cur.End = end
	}
	c.rows = append(c.rows, c.cur)
	return &Series{
		SchemaVersion: SchemaVersion,
		EpochCycles:   uint64(c.cfg.EpochCycles),
		Links:         c.cfg.Links,
		Nodes:         c.cfg.Nodes,
		Classes:       ClassNames(),
		LatBuckets:    NumLatBuckets,
		Cycles:        uint64(endCycle),
		Epochs:        c.rows,
	}
}
