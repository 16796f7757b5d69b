// Package protocol implements the directory-based MESIF coherence protocol
// of the paper's baseline machine, extended with the destination-set
// prediction actions of §4.5.
//
// Structure:
//   - messages.go: the coherence message vocabulary and sizes
//   - dir.go:      the per-tile directory slice (full-map, per-line
//     serialization with a busy/unblock discipline)
//   - node.go:     the per-tile L2 cache controller: L1/L2 arrays, MSHRs,
//     writeback buffer, predicted-request path, miss completion
//
// The protocol operates on top of the internal/noc mesh; every message is a
// real network packet with latency, serialization and contention.
package protocol

import (
	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

// MsgKind enumerates coherence message types.
type MsgKind uint8

const (
	// Requests to the directory.
	MsgGetS MsgKind = iota // read miss
	MsgGetM                // write/upgrade miss; carries HadLine
	MsgPutS                // eviction of a Shared line
	MsgPutE                // eviction of an Exclusive/Forward (clean) line
	MsgPutM                // eviction of a Modified line (carries data)

	// Predicted requests, sent directly to predicted nodes (§4.5).
	MsgPredGetS // "forward me the line if you can"
	MsgPredGetM // "forward and/or invalidate"

	// Directory-to-node.
	MsgFwdGetS // forward data to requester, downgrade
	MsgFwdGetM // forward data to requester, invalidate
	MsgInv     // invalidate; ack to requester
	MsgDirResp // directory reply to a GetM: sufficiency, ack count, data plan
	MsgPutAck  // eviction acknowledged

	// Node-to-node responses.
	MsgData      // data response (carries provider and exclusivity)
	MsgInvAck    // invalidation acknowledgment
	MsgNack      // predicted node cannot help
	MsgDirUpd    // predicted node -> directory: sharing-state update (§4.5)
	MsgUnblock   // requester -> directory: transaction complete
	MsgWriteback // owner -> directory/memory: dirty data on downgrade

	// MsgGetRetry breaks the rare race where the directory judged a
	// prediction sufficient but the predicted supplier had already lost
	// the line to a racing invalidation: the requester asks the home to
	// supply data from memory. The directory state is already correct;
	// only the data delivery is replayed.
	MsgGetRetry
)

// String returns the message mnemonic.
func (k MsgKind) String() string {
	names := [...]string{
		"GetS", "GetM", "PutS", "PutE", "PutM",
		"PredGetS", "PredGetM",
		"FwdGetS", "FwdGetM", "Inv", "DirResp", "PutAck",
		"Data", "InvAck", "Nack", "DirUpd", "Unblock", "Writeback", "GetRetry",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}

// ControlBytes and DataBytes are message payload sizes: a control packet
// carries address + type + a sharer bit-vector (8 bytes); a data packet adds
// the 64-byte cache line.
const (
	ControlBytes = 8
	DataBytes    = arch.LineSize + ControlBytes
)

// Bytes returns the payload size of a message kind.
func (k MsgKind) Bytes() int {
	switch k {
	case MsgData, MsgPutM, MsgWriteback:
		return DataBytes
	default:
		return ControlBytes
	}
}

// Msg is a coherence message in flight.
type Msg struct {
	Kind MsgKind
	Src  arch.NodeID
	Dst  arch.NodeID
	Line arch.LineAddr

	// Requester is the node whose miss this message serves (may differ
	// from Src for forwarded/ack messages).
	Requester arch.NodeID

	// Pred is the predicted destination set attached to GetS/GetM, and the
	// correctly-predicted-sharer vector in DirResp.
	Pred arch.SharerSet

	// HadLine marks a GetM from a node holding a Shared copy (upgrade).
	HadLine bool

	// Excl marks a Data response granting exclusivity (E/M fill), and in
	// DirResp whether the prediction was sufficient.
	Excl bool

	// AckCount in DirResp is the number of InvAcks the requester must
	// collect; in Data from the directory path it is 0.
	AckCount int

	// NeedData in DirResp tells the requester whether a data message is
	// still coming via the directory path.
	NeedData bool

	// PredSupply in DirResp marks a data plan that relies on a predicted
	// node forwarding (no directory-issued forward or memory fetch). If
	// the predicted holder turns out unable to forward, the requester
	// recovers with MsgGetRetry. Supplier names that expected holder.
	PredSupply bool
	Supplier   arch.NodeID

	// FromMem marks data supplied by memory rather than a cache.
	FromMem bool

	// Kind of the original miss (for training and stats).
	MissKind predictor.MissKind

	// PC of the instruction that caused the miss (for INST prediction).
	PC uint64
}
