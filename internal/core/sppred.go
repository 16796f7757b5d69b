package core

import (
	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

// strideConfirm is how many consecutive alternations must be observed
// before the stride prediction is used.
const strideConfirm = 2

// Config parameterizes the SP-predictor. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	Nodes int

	// HistoryDepth is d, the signatures kept per SP-table entry (§4.4).
	// The paper's evaluated design uses 2.
	HistoryDepth int

	// HotThreshold is the fraction of an interval's communication volume a
	// core must draw to join the hot communication set (§3.3: 10%).
	HotThreshold float64

	// WarmupMisses is the number of misses observed before a d=0 predictor
	// is formed from the current interval's counters (§4.4: "after
	// allowing some warm-up time, e.g., 30 misses").
	WarmupMisses int

	// NoiseMinComm is the noisy-instance filter (§3.4): epochs with fewer
	// communicating misses than this store no signature.
	NoiseMinComm int

	// ConfidenceMax is the saturating ceiling of the 4-bit confidence
	// counter (§4.4: 15). The counter starts full each epoch, increments
	// on correct predictions, decrements otherwise, and triggers recovery
	// at zero.
	ConfidenceMax int

	// StrideDetect enables the stride-2 repetitive-pattern policy.
	StrideDetect bool

	// MaxEntries bounds the shared SP-table (0 = unlimited).
	MaxEntries int
}

// DefaultConfig is the paper's evaluated configuration. WarmupMisses is
// scaled down from the paper's example value of 30: the synthetic
// workloads' epochs carry roughly a quarter of the misses of the paper's
// full-size intervals (see DESIGN.md §1), so the warm-up threshold shrinks
// proportionally to keep the d=0 policy live.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		HistoryDepth:  2,
		HotThreshold:  0.10,
		WarmupMisses:  8,
		NoiseMinComm:  4,
		ConfidenceMax: 15,
		StrideDetect:  true,
	}
}

// Predictor is the per-node SP-predictor. All nodes share one *Table so
// that lock entries are globally visible.
type Predictor struct {
	cfg   Config
	self  arch.NodeID
	table *Table

	// Communication counters (§4.2): one per destination, reset at each
	// sync-point.
	counters  []uint32
	misses    int // all misses this epoch
	commCount int // communicating misses this epoch

	// Current epoch identity.
	curKey  epochKey
	haveKey bool
	isLock  bool

	// Active prediction state (the "predictor register", §5.5).
	set        arch.SharerSet
	tag        predictor.Tag
	havePred   bool
	confidence int

	// Statistics.
	Recoveries   uint64
	NoisySkipped uint64
}

// NewPredictor builds one node's SP-predictor over the shared table.
func NewPredictor(cfg Config, self arch.NodeID, table *Table) *Predictor {
	if table == nil {
		table = NewTable(cfg.HistoryDepth, cfg.MaxEntries)
	}
	return &Predictor{cfg: cfg, self: self, table: table, counters: make([]uint32, cfg.Nodes)}
}

// NewSystem builds predictors for all nodes sharing one SP-table, ready to
// pass to protocol.New.
func NewSystem(cfg Config) []predictor.Predictor {
	table := NewTable(cfg.HistoryDepth, cfg.MaxEntries)
	preds := make([]predictor.Predictor, cfg.Nodes)
	for i := range preds {
		preds[i] = NewPredictor(cfg, arch.NodeID(i), table)
	}
	return preds
}

// Table returns the shared SP-table.
func (p *Predictor) Table() *Table { return p.table }

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return "SP" }

// hotSet extracts the hot communication set from the current counters.
func (p *Predictor) hotSet() arch.SharerSet {
	var total uint64
	for _, c := range p.counters {
		total += uint64(c)
	}
	if total == 0 {
		return arch.EmptySet
	}
	min := p.cfg.HotThreshold * float64(total)
	var s arch.SharerSet
	for i, c := range p.counters {
		if c > 0 && float64(c) >= min {
			s = s.Add(arch.NodeID(i))
		}
	}
	return s
}

// OnSync implements predictor.Predictor: a sync-point ends the current
// epoch (store its signature, Table 2) and begins a new one (retrieve a
// prediction, Table 3).
func (p *Predictor) OnSync(e predictor.SyncEvent) {
	// 1. Close the ending epoch: extract and store its signature, unless
	// the instance was too quiet to be representative (§3.4). Critical
	// sections are excluded: their shared lock entry holds only the
	// sequence of holder IDs, pushed at acquisition (§4.2: "the
	// communication signature encodes only the ID of the processor that
	// releases the lock").
	if p.haveKey && !p.isLock {
		if p.commCount >= p.cfg.NoiseMinComm {
			p.table.push(p.curKey, p.hotSet())
		} else {
			p.NoisySkipped++
		}
	}

	// 2. Open the new epoch.
	p.isLock = e.Kind == predictor.SyncLock
	if p.isLock {
		p.curKey = epochKey{staticID: e.StaticID, proc: arch.None, lock: true}
	} else {
		p.curKey = epochKey{staticID: e.StaticID, proc: p.self}
	}
	p.haveKey = true

	// 3. Form the predictor for the new epoch (Table 3).
	p.set, p.tag, p.havePred = p.retrievePrediction()
	p.confidence = p.cfg.ConfidenceMax

	// 4. For locks, record this processor as the latest holder right
	// after acquisition (§4.3: "updates occur just after the lock is
	// acquired", keeping shared entries atomic).
	if p.isLock {
		p.table.push(p.curKey, arch.SetOf(p.self))
	}

	// 5. Reset the communication counters (Table 2).
	for i := range p.counters {
		p.counters[i] = 0
	}
	p.misses = 0
	p.commCount = 0
}

// retrievePrediction applies the history-depth policy of Table 3.
func (p *Predictor) retrievePrediction() (arch.SharerSet, predictor.Tag, bool) {
	sigs, stride := p.table.history(p.curKey)
	if p.isLock {
		// Union of the last d lock holders.
		var s arch.SharerSet
		for _, sig := range sigs {
			s = s.Union(sig)
		}
		s = s.Remove(p.self)
		if s.Empty() {
			return arch.EmptySet, predictor.TagNone, false
		}
		return s, predictor.TagLock, true
	}
	switch {
	case len(sigs) == 0:
		// d=0: never seen; predict from within-interval activity after
		// warm-up (handled in Predict).
		return arch.EmptySet, predictor.TagNone, false
	case len(sigs) == 1:
		if sigs[0].Empty() {
			return arch.EmptySet, predictor.TagNone, false
		}
		return sigs[0], predictor.TagHistory, true
	default:
		// Stride-2 repetitive pattern: the next instance repeats the
		// signature seen two instances ago.
		if p.cfg.StrideDetect && stride >= strideConfirm {
			return sigs[1], predictor.TagHistory, true
		}
		// Last stable hot set: intersection of the two most recent
		// signatures; adapts fast to stable-pattern changes (Fig. 6(b)).
		inter := sigs[0].Intersect(sigs[1])
		if !inter.Empty() {
			return inter, predictor.TagHistory, true
		}
		if !sigs[0].Empty() {
			return sigs[0], predictor.TagHistory, true
		}
		return arch.EmptySet, predictor.TagNone, false
	}
}

// Predict implements predictor.Predictor (Table 3).
func (p *Predictor) Predict(predictor.Miss) (arch.SharerSet, predictor.Tag) {
	if p.havePred {
		s := p.set.Remove(p.self)
		if s.Empty() {
			return arch.EmptySet, predictor.TagNone
		}
		return s, p.tag
	}
	// d=0 policy: after warm-up, predict from the interval's own activity.
	if p.misses >= p.cfg.WarmupMisses {
		if hot := p.hotSet().Remove(p.self); !hot.Empty() {
			return hot, predictor.TagD0
		}
	}
	return arch.EmptySet, predictor.TagNone
}

// Train implements predictor.Predictor: updates the communication counters
// (Table 2) and drives the confidence/recovery mechanism (§4.4).
func (p *Predictor) Train(_ predictor.Miss, o predictor.Outcome) {
	p.misses++
	targets := o.Targets().Remove(p.self)
	if o.Communicating && !targets.Empty() {
		p.commCount++
		targets.ForEach(func(n arch.NodeID) { p.counters[n]++ })
	}

	// Confidence tracks how well the active prediction set is doing.
	if p.havePred && o.Communicating {
		if p.set.Superset(targets) {
			if p.confidence < p.cfg.ConfidenceMax {
				p.confidence++
			}
		} else {
			p.confidence--
			if p.confidence <= 0 {
				// Recovery: rebuild from the interval's own counters.
				p.Recoveries++
				if hot := p.hotSet().Remove(p.self); !hot.Empty() {
					p.set = hot
					p.tag = predictor.TagRecovery
				} else {
					p.havePred = false
				}
				p.confidence = p.cfg.ConfidenceMax
			}
		}
	}
}

// StorageBits implements predictor.Predictor: this node's share of the
// SP-table plus the communication counters (one byte each) and the
// prediction register (§5.4: fixed cost of 17 bytes per core for 16 nodes).
func (p *Predictor) StorageBits() int {
	tableShare := p.table.StorageBits(p.cfg.Nodes) / p.cfg.Nodes
	return tableShare + 8*p.cfg.Nodes + p.cfg.Nodes
}
