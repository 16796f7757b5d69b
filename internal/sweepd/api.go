// Package sweepd turns the sweep engine into a long-running multi-host
// job service: an HTTP/JSON daemon that accepts submitted matrices,
// decomposes them into internal/sweep's content-addressed jobs, and hands
// them to workers through a lease protocol (TTL, heartbeat renewal,
// expiry → requeue with bounded attempts, per-job attempt history).
//
// Workers come in two forms sharing one code path (RunWorker +
// sweep.RunAttempt): the server's in-process pool, and RunWorker driving a
// *Client that polls/leases/executes/pushes over HTTP. Completed cells
// land in the shared sweep.Store, so a restarted server resumes with zero
// recomputation, and the merge endpoint renders results byte-identically
// to a local sweep.Run of the same matrix:
//
//   - every cell is one deterministic simulation, so any worker, on any
//     host, at any time produces the identical result bytes;
//   - results are stored content-addressed by job digest and merged in job
//     key order, so scheduling, distribution, duplicate completions and
//     restarts cannot reorder or alter the report;
//   - the renderers (sweep.Format*) carry no wall times or provenance.
//
// The package is host-side orchestration above the DES — goroutines,
// wall-clock TTLs and HTTP are its job — and is therefore exempt from
// spvet's SimOnly checks (lint.DefaultIsSim) while remaining subject to
// maprange/floatorder.
//
// No command serves or calls this package. It stays only for the perfbench
// sweep-fast-server workload, and goes once that workload runs a local
// sweep.Run instead (DESIGN.md §14).
//
// This file defines the wire types of the HTTP/JSON API (version 1, under
// /api/v1). Authentication is a single shared bearer token (Options.Token):
// when set, every request except the health probe must carry
// "Authorization: Bearer <token>". Request bodies are capped
// (Options.MaxBodyBytes, default 8 MiB); oversized payloads get HTTP 413.
package sweepd

import (
	"encoding/json"

	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// APIBase prefixes every route of API version 1.
const APIBase = "/api/v1"

// SpecUpload carries one scenario spec's raw file bytes alongside a
// submitted matrix, so remote workers need no shared filesystem. The
// server re-verifies that Content hashes to Digest (the identity recorded
// in the matrix's SpecRefs) before accepting the sweep.
type SpecUpload struct {
	Name    string          `json:"name"`
	Digest  string          `json:"digest"`
	Content json.RawMessage `json:"content"`
}

// SubmitRequest submits one sweep matrix. Matrix.Specs[].Path entries are
// client-local and ignored; the server re-homes specs from the uploads.
type SubmitRequest struct {
	Matrix sweep.Matrix `json:"matrix"`
	Specs  []SpecUpload `json:"specs,omitempty"`
}

// SubmitResponse acknowledges a submitted sweep. Submission is
// idempotent: the sweep ID is the matrix digest, and resubmitting a known
// matrix returns its current counts without disturbing it.
type SubmitResponse struct {
	SweepID string `json:"sweep_id"`
	Counts  Counts `json:"counts"`
}

// Counts summarizes job states.
type Counts struct {
	Jobs    int `json:"jobs"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Cached  int `json:"cached"` // subset of Done recalled from the store
	Failed  int `json:"failed"`
}

// Terminal reports whether every job has reached a final state.
func (c Counts) Terminal() bool { return c.Jobs > 0 && c.Pending == 0 && c.Leased == 0 }

// JobStatus is one job's scheduling state. Display only — nothing
// deterministic may be derived from it (that is what the results endpoint
// is for).
type JobStatus struct {
	Key      string  `json:"key"`
	State    string  `json:"state"` // pending | leased | done | failed
	Cached   bool    `json:"cached,omitempty"`
	Worker   string  `json:"worker,omitempty"` // last attempt's worker
	Attempts int     `json:"attempts,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"` // last finished attempt's wall time
	Error    string  `json:"error,omitempty"`   // last attempt's error
}

// StatusResponse reports one sweep's state, jobs in key order.
type StatusResponse struct {
	SweepID string       `json:"sweep_id"`
	Matrix  sweep.Matrix `json:"matrix"`
	Counts  Counts       `json:"counts"`
	Jobs    []JobStatus  `json:"jobs"`
}

// SweepInfo is one row of the sweep listing.
type SweepInfo struct {
	SweepID string `json:"sweep_id"`
	Counts  Counts `json:"counts"`
}

// ListResponse lists all sweeps the server knows, sorted by ID.
type ListResponse struct {
	Sweeps []SweepInfo `json:"sweeps"`
}

// LeaseRequest asks for one job lease. Worker is a display identity; the
// lease ID, not the worker name, is the capability.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Grant hands a worker one leased job. For scenario-spec cells Spec
// carries the spec file bytes; the worker re-verifies them against
// Job.SpecDigest before executing, exactly as a local sweep does.
type Grant struct {
	LeaseID   string          `json:"lease_id"`
	Job       sweep.Job       `json:"job"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	TTLMillis int64           `json:"ttl_ms"`
}

// LeaseResponse answers a lease request. A nil Grant means no job is
// available right now; Drained additionally reports that the server knows
// at least one job and every known job is terminal, so a draining worker
// can exit instead of polling.
type LeaseResponse struct {
	Grant   *Grant `json:"grant,omitempty"`
	Drained bool   `json:"drained,omitempty"`
}

// CompleteRequest pushes a finished job's result.
type CompleteRequest struct {
	Result *sim.Result `json:"result"`
}

// CompleteResponse acknowledges a completion. Duplicate marks the no-op
// case: another worker (or an earlier life of this lease) already
// completed the job — first write wins, and determinism makes the loser's
// bytes identical anyway.
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// FailRequest reports a failed attempt; the server requeues the job until
// its attempts are exhausted.
type FailRequest struct {
	Error string `json:"error"`
}

// Event is one record of a sweep's status stream (NDJSON over a chunked
// response): a "job" event per job reaching a terminal state (replayed
// from current state for late subscribers, then live), then one
// "complete" event when the sweep is fully terminal.
type Event struct {
	Type    string     `json:"type"` // job | complete
	SweepID string     `json:"sweep_id,omitempty"`
	Job     *JobStatus `json:"job,omitempty"`
	Counts  *Counts    `json:"counts,omitempty"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
