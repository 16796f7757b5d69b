package predictor

import "spcoh/internal/arch"

// Policy selects how a group predictor turns its counters into a predicted
// set (Martin et al.'s design space, referenced in the paper's §5.4
// footnote: "other prediction policies such as 'owner' or 'group/owner'
// can also be used").
type Policy uint8

const (
	// PolicyGroup predicts every core whose counter meets the threshold
	// (the paper's evaluated configuration).
	PolicyGroup Policy = iota
	// PolicyOwner predicts only the single highest-counter core — minimal
	// bandwidth, single-target accuracy.
	PolicyOwner
	// PolicyGroupOwner predicts the owner for reads (one supplier
	// suffices) and the group for writes (all sharers must go).
	PolicyGroupOwner
)

// The counter geometry of every group predictor (paper §5.4): one 2-bit
// saturating counter per core, a core joins the predicted group at 2, and
// a 5-bit roll-over counter decays every counter by one each 32 trainings
// of an entry (train-down), so inactive destinations fade out.
const (
	CounterMax      uint8 = 3
	Threshold       uint8 = 2
	TrainDownPeriod uint8 = 32
)

// GroupConfig parameterizes a Martin-style "group" destination-set
// predictor (paper §5.4).
type GroupConfig struct {
	// Policy selects the prediction policy (default PolicyGroup).
	Policy Policy

	Nodes int // number of cores (counter vector width)
	// IndexGranularityBits sets the address-indexed entries' granularity:
	// keys are addr >> IndexGranularityBits, 256-byte macroblocks (8 bits)
	// in the paper's ADDR predictor. ByPC indexes by PC instead (INST).
	IndexGranularityBits int
	ByPC                 bool
	// Entries caps the table size (fully-associative LRU replacement);
	// 0 means unlimited, the Figure-12 configuration.
	Entries int
}

// DefaultAddrConfig is the paper's macroblock ADDR predictor.
func DefaultAddrConfig(nodes int) GroupConfig {
	return GroupConfig{Nodes: nodes, IndexGranularityBits: 8}
}

// DefaultInstConfig is the paper's INST (PC-indexed) predictor.
func DefaultInstConfig(nodes int) GroupConfig {
	return GroupConfig{Nodes: nodes, ByPC: true}
}

// train trains one counter vector toward targets: each target's counter
// but self's steps up to CounterMax, and every TrainDownPeriod-th training
// (counted in roll) decays all counters by one.
func train(counters []uint8, roll *uint8, self arch.NodeID, targets arch.SharerSet) {
	targets.ForEach(func(n arch.NodeID) {
		if n != self && counters[n] < CounterMax {
			counters[n]++
		}
	})
	*roll++
	if *roll >= TrainDownPeriod {
		*roll = 0
		for i := range counters {
			if counters[i] > 0 {
				counters[i]--
			}
		}
	}
}

// predict turns one counter vector into a prediction: every core but self
// whose counter meets Threshold, or with ownerOnly only the highest such
// core (the lowest-numbered on a tie).
func predict(counters []uint8, self arch.NodeID, ownerOnly bool) (arch.SharerSet, Tag) {
	var set arch.SharerSet
	best, bestC := arch.None, uint8(0)
	for i, c := range counters {
		if n := arch.NodeID(i); n != self && c >= Threshold {
			set = set.Add(n)
			if c > bestC {
				best, bestC = n, c
			}
		}
	}
	if set.Empty() {
		return arch.EmptySet, TagNone
	}
	if ownerOnly {
		set = arch.SetOf(best)
	}
	return set, TagOther
}

// Group is a group destination-set predictor (ADDR or INST depending on
// configuration). It is per-node state: each core owns one instance. The
// entry in LRU slot s keeps its counters in
// counters[s*Nodes:(s+1)*Nodes] and its roll-over counter in roll[s].
type Group struct {
	name     string
	self     arch.NodeID
	cfg      GroupConfig
	lru      *LRU[uint64]
	counters []uint8
	roll     []uint8
}

// NewGroup builds a group predictor for the given node.
func NewGroup(name string, self arch.NodeID, cfg GroupConfig) *Group {
	if cfg.Nodes <= 0 {
		panic("predictor: GroupConfig.Nodes must be positive")
	}
	return &Group{name: name, self: self, cfg: cfg, lru: NewLRU[uint64](cfg.Entries)}
}

// NewAddr builds the paper's ADDR predictor (unlimited entries).
func NewAddr(self arch.NodeID, nodes int) *Group {
	return NewGroup("ADDR", self, DefaultAddrConfig(nodes))
}

// NewInst builds the paper's INST predictor (unlimited entries).
func NewInst(self arch.NodeID, nodes int) *Group {
	return NewGroup("INST", self, DefaultInstConfig(nodes))
}

// Name implements Predictor.
func (g *Group) Name() string { return g.name }

func (g *Group) key(m Miss) uint64 {
	if g.cfg.ByPC {
		return m.PC
	}
	// Line addresses are already byte-address >> 6; shift the remainder.
	return uint64(m.Line) >> max(g.cfg.IndexGranularityBits-arch.LineShift, 0)
}

// Predict implements Predictor: the entry's counters filtered through the
// configured policy. A missing entry yields no prediction.
func (g *Group) Predict(m Miss) (arch.SharerSet, Tag) {
	s, ok := g.lru.Get(g.key(m))
	if !ok {
		return arch.EmptySet, TagNone
	}
	ownerOnly := g.cfg.Policy == PolicyOwner ||
		(g.cfg.Policy == PolicyGroupOwner && m.Kind == ReadMiss)
	return predict(g.counters[int(s)*g.cfg.Nodes:][:g.cfg.Nodes], g.self, ownerOnly)
}

// trainKey trains key's entry toward targets, inserting it (and evicting
// the least recently used entry of a full table) when absent.
func (g *Group) trainKey(key uint64, targets arch.SharerSet) {
	s, fresh := g.lru.Add(key)
	if fresh {
		g.counters = Fresh(g.counters, s, g.cfg.Nodes)
		g.roll = Fresh(g.roll, s, 1)
	}
	train(g.counters[int(s)*g.cfg.Nodes:][:g.cfg.Nodes], &g.roll[s], g.self, targets)
}

// Train implements Predictor: trains the entry toward the observed targets.
func (g *Group) Train(m Miss, o Outcome) {
	g.trainKey(g.key(m), o.Targets())
}

// TrainExternal trains from an incoming coherence request: requester asked
// this node about line. Only address-indexed groups can use this signal
// (external requests carry no local PC), matching the paper's observation
// that ADDR/INST train on "both external coherence requests and coherence
// responses" where applicable.
func (g *Group) TrainExternal(line arch.LineAddr, requester arch.NodeID) {
	if g.cfg.ByPC {
		return
	}
	g.trainKey(g.key(Miss{Line: line}), arch.SetOf(requester))
}

// OnSync implements Predictor; group predictors ignore sync-points.
func (g *Group) OnSync(SyncEvent) {}

// StorageBits implements Predictor: 2 bits per core plus the 5-bit
// roll-over counter per entry, plus a tag per entry (paper §5.4: 37 bits
// untagged for 16 cores; tags add 32 bits).
func (g *Group) StorageBits() int {
	return g.lru.Provisioned() * (2*g.cfg.Nodes + 5 + 32)
}

// Len returns the current number of table entries (test aid).
func (g *Group) Len() int { return g.lru.Len() }

// Uni is the paper's UNI predictor: a single untagged group entry trained
// only by the targets of this core's own misses (coherence responses),
// independent of address or instruction — pure temporal communication
// locality, the cheapest possible design point.
type Uni struct {
	self     arch.NodeID
	counters []uint8
	roll     uint8
}

// NewUni builds a UNI predictor for the given node.
func NewUni(self arch.NodeID, nodes int) *Uni {
	return &Uni{self: self, counters: make([]uint8, nodes)}
}

// Name implements Predictor.
func (u *Uni) Name() string { return "UNI" }

// Predict implements Predictor.
func (u *Uni) Predict(Miss) (arch.SharerSet, Tag) {
	return predict(u.counters, u.self, false)
}

// Train implements Predictor.
func (u *Uni) Train(_ Miss, o Outcome) {
	train(u.counters, &u.roll, u.self, o.Targets())
}

// OnSync implements Predictor.
func (u *Uni) OnSync(SyncEvent) {}

// StorageBits implements Predictor: one untagged entry.
func (u *Uni) StorageBits() int { return 2*len(u.counters) + 5 }
