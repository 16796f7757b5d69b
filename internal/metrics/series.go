// Package metrics is the run-time observability layer of the simulator: a
// collector that samples the whole system on a fixed cycle epoch — per-link
// NoC utilization and stall heatmaps, per-message-class latency histograms,
// per-node miss and sync-point rates, predictor accuracy timelines, and
// event-engine health — and exports the result as a deterministic JSON
// time-series.
//
// The collector accumulates through hooks registered in internal/event
// (per-fired-event observer), internal/noc (link occupancy, stalls,
// deliveries) and internal/protocol / internal/snoop (message classes,
// misses, sync points). Epoch boundaries are resolved lazily: every hook
// first rolls the current epoch forward to the hook's cycle, so no extra
// events are scheduled and a run with metrics enabled fires exactly the
// same event sequence as one without. With no collector attached every
// hook site is a single nil check.
//
// Determinism: the exported Series contains only fixed-shape slices (no
// maps), so its JSON encoding is byte-identical across same-seed runs.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"spcoh/internal/protocol"
)

// SchemaVersion guards the on-disk time-series schema; consumers reject a
// mismatch rather than misreading fields.
const SchemaVersion = 1

// NumLatBuckets is the number of power-of-two latency buckets: bucket 0
// holds latency 0, bucket b holds [2^(b-1), 2^b) cycles, and the last
// bucket additionally absorbs overflow.
const NumLatBuckets = 12

// LatBucket returns the histogram bucket index for a latency in cycles.
func LatBucket(lat uint64) int {
	b := bits.Len64(lat) // 0 for 0, 1 for 1, 2 for 2-3, ...
	if b >= NumLatBuckets {
		return NumLatBuckets - 1
	}
	return b
}

// MsgClass buckets coherence messages for the latency histograms: the
// request/response/invalidate/ack taxonomy of the paper's traffic
// discussion.
type MsgClass uint8

const (
	// ClassRequest covers node→directory requests and predicted requests
	// (GetS, GetM, Put*, PredGet*, GetRetry) and snoop broadcasts.
	ClassRequest MsgClass = iota
	// ClassResponse covers data and control responses (Data, DirResp,
	// PutAck, Nack, DirUpd, Unblock, Writeback) and snoop responses.
	ClassResponse
	// ClassInvalidate covers directory-issued forwards/invalidations
	// (FwdGetS, FwdGetM, Inv).
	ClassInvalidate
	// ClassAck covers invalidation acknowledgments (InvAck).
	ClassAck

	// NumClasses is the number of message classes.
	NumClasses = 4
)

// String returns the class name used in the JSON schema.
func (c MsgClass) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	case ClassInvalidate:
		return "invalidate"
	case ClassAck:
		return "ack"
	default:
		return "?"
	}
}

// ClassNames returns the class names in index order.
func ClassNames() []string {
	names := make([]string, NumClasses)
	for c := MsgClass(0); c < NumClasses; c++ {
		names[c] = c.String()
	}
	return names
}

// ClassOf maps a message kind to its class. Broadcast snooping reports its
// snoop requests as MsgGetS/MsgGetM (requests) and its snoop and memory
// responses as MsgData (responses).
func ClassOf(k protocol.MsgKind) MsgClass {
	switch k {
	case protocol.MsgGetS, protocol.MsgGetM, protocol.MsgPutS, protocol.MsgPutE,
		protocol.MsgPutM, protocol.MsgPredGetS, protocol.MsgPredGetM, protocol.MsgGetRetry:
		return ClassRequest
	case protocol.MsgFwdGetS, protocol.MsgFwdGetM, protocol.MsgInv:
		return ClassInvalidate
	case protocol.MsgInvAck:
		return ClassAck
	default:
		return ClassResponse
	}
}

// EpochRow is one sampling epoch of the time-series. Counters accumulate
// over the epoch's cycle window [Start, End); gauges (queue depth) are
// sampled at the last fired event inside the window.
type EpochRow struct {
	Epoch uint64 `json:"epoch"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`

	// NoC: per-directed-link busy cycles (occupancy intervals are split
	// exactly across epoch boundaries) and stall cycles (attributed to the
	// epoch in which the stalled packet was injected).
	LinkBusy  []uint64 `json:"link_busy"`
	LinkStall []uint64 `json:"link_stall"`
	// Endpoint deliveries and their latency histogram (all packet kinds).
	Delivered   uint64   `json:"delivered"`
	DeliveryLat []uint64 `json:"delivery_lat"`

	// Per-message-class delivery counts and latency histograms, indexed by
	// MsgClass.
	ClassCount []uint64   `json:"class_count"`
	ClassLat   [][]uint64 `json:"class_lat"`

	// Protocol: per-node completed misses and sync-point crossings.
	NodeMisses []uint64 `json:"node_misses"`
	NodeSyncs  []uint64 `json:"node_syncs"`

	// Miss totals and the predictor timeline for the epoch.
	Misses      uint64 `json:"misses"`
	CommMisses  uint64 `json:"comm_misses"`
	MissLatSum  uint64 `json:"miss_lat_sum"`
	Predicted   uint64 `json:"predicted"`
	PredCorrect uint64 `json:"pred_correct"`

	// Event-engine health: events fired in the window, queue depth at the
	// last fired event, and the maximum depth observed.
	Fired      uint64 `json:"fired"`
	QueueDepth int    `json:"queue_depth"`
	QueueMax   int    `json:"queue_max"`
}

// Accuracy returns the epoch's predictor accuracy: correctly predicted
// communicating misses over communicating misses (the paper's accuracy
// definition, per epoch). 0 when no communicating miss completed.
func (e *EpochRow) Accuracy() float64 {
	if e.CommMisses == 0 {
		return 0
	}
	return float64(e.PredCorrect) / float64(e.CommMisses)
}

// Coverage returns the fraction of the epoch's misses issued with a
// non-empty predicted set.
func (e *EpochRow) Coverage() float64 {
	if e.Misses == 0 {
		return 0
	}
	return float64(e.Predicted) / float64(e.Misses)
}

// MeanLinkUtilization returns the mean busy fraction across links for the
// epoch (0 for a zero-width epoch).
func (e *EpochRow) MeanLinkUtilization() float64 {
	width := e.End - e.Start
	if width == 0 || len(e.LinkBusy) == 0 {
		return 0
	}
	var busy uint64
	for _, b := range e.LinkBusy {
		busy += b
	}
	return float64(busy) / (float64(width) * float64(len(e.LinkBusy)))
}

// MaxLinkUtilization returns the busiest link's busy fraction and index.
func (e *EpochRow) MaxLinkUtilization() (float64, int) {
	width := e.End - e.Start
	if width == 0 {
		return 0, 0
	}
	best, idx := uint64(0), 0
	for l, b := range e.LinkBusy {
		if b > best {
			best, idx = b, l
		}
	}
	return float64(best) / float64(width), idx
}

// Series is the exported time-series of one instrumented run.
type Series struct {
	SchemaVersion int      `json:"schema_version"`
	EpochCycles   uint64   `json:"epoch_cycles"`
	Links         int      `json:"links"`
	Nodes         int      `json:"nodes"`
	Classes       []string `json:"classes"`
	LatBuckets    int      `json:"lat_buckets"`
	// Cycles is the run's final clock; the last epoch may be partial.
	Cycles uint64     `json:"cycles"`
	Epochs []EpochRow `json:"epochs"`
}

// Validate checks the structural invariants every consumer relies on:
// known schema version, positive epoch width, and monotone, contiguous,
// correctly-shaped epoch rows.
func (s *Series) Validate() error {
	if s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("metrics: schema version %d, want %d", s.SchemaVersion, SchemaVersion)
	}
	if s.EpochCycles == 0 {
		return fmt.Errorf("metrics: zero epoch width")
	}
	if len(s.Classes) != NumClasses {
		return fmt.Errorf("metrics: %d classes, want %d", len(s.Classes), NumClasses)
	}
	for i := range s.Epochs {
		e := &s.Epochs[i]
		if e.Epoch != uint64(i) {
			return fmt.Errorf("metrics: epoch %d has index %d (not monotone/contiguous)", i, e.Epoch)
		}
		if e.Start != uint64(i)*s.EpochCycles {
			return fmt.Errorf("metrics: epoch %d starts at %d, want %d", i, e.Start, uint64(i)*s.EpochCycles)
		}
		wantEnd := e.Start + s.EpochCycles
		if i == len(s.Epochs)-1 {
			if e.End > wantEnd || e.End < e.Start {
				return fmt.Errorf("metrics: final epoch ends at %d, want within (%d, %d]", e.End, e.Start, wantEnd)
			}
		} else if e.End != wantEnd {
			return fmt.Errorf("metrics: epoch %d ends at %d, want %d", i, e.End, wantEnd)
		}
		if len(e.LinkBusy) != s.Links || len(e.LinkStall) != s.Links {
			return fmt.Errorf("metrics: epoch %d has %d/%d link cells, want %d", i, len(e.LinkBusy), len(e.LinkStall), s.Links)
		}
		if len(e.NodeMisses) != s.Nodes || len(e.NodeSyncs) != s.Nodes {
			return fmt.Errorf("metrics: epoch %d has %d/%d node cells, want %d", i, len(e.NodeMisses), len(e.NodeSyncs), s.Nodes)
		}
		if len(e.ClassCount) != NumClasses || len(e.ClassLat) != NumClasses {
			return fmt.Errorf("metrics: epoch %d has %d class cells, want %d", i, len(e.ClassCount), NumClasses)
		}
		if len(e.DeliveryLat) != s.LatBuckets {
			return fmt.Errorf("metrics: epoch %d delivery histogram has %d buckets, want %d", i, len(e.DeliveryLat), s.LatBuckets)
		}
		for c, h := range e.ClassLat {
			if len(h) != s.LatBuckets {
				return fmt.Errorf("metrics: epoch %d class %d histogram has %d buckets, want %d", i, c, len(h), s.LatBuckets)
			}
		}
	}
	return nil
}

// WriteJSON encodes the series as indented JSON. The encoding contains no
// maps, so the bytes are deterministic for identical series.
func (s *Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON decodes and validates a series.
func ReadJSON(r io.Reader) (*Series, error) {
	var s Series
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("metrics: decode series: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
