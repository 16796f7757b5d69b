// Package sweepd serves a sweep matrix to workers over HTTP/JSON: it
// accepts a submitted matrix, decomposes it into internal/sweep's
// content-addressed jobs, and hands them out through a lease protocol
// (TTL, heartbeat renewal, expiry). A job is leased at most once: a
// failed attempt or a lapsed lease fails the job terminally and records
// it in the store's failure ledger, as the local engine does.
//
// RunWorker drives a *Client that leases, executes and pushes results.
// Completed cells land in the shared sweep.Store, so a restarted server
// resumes with zero recomputation, and the results endpoint renders the
// merged JSON byte-identically to a local sweep.Run of the same matrix:
//
//   - every cell is one deterministic simulation, so any worker, at any
//     time, produces the identical result bytes;
//   - results are stored content-addressed by job digest and merged in job
//     key order, so scheduling, duplicate completions and restarts cannot
//     reorder or alter the report;
//   - the renderer (sweep.Report.FormatJSON) carries no wall times or
//     provenance.
//
// The package is host-side orchestration above the DES — goroutines,
// wall-clock TTLs and HTTP are its job — and is therefore exempt from
// spvet's SimOnly checks (lint.DefaultIsSim) while remaining subject to
// maprange/floatorder.
//
// No command serves or calls this package. It stays only for the perfbench
// sweep-fast-server workload, and goes once that workload runs a local
// sweep.Run instead (DESIGN.md §14). It serves exactly that workload's
// traffic: a submit, the four lease calls, and the JSON results.
//
// This file defines the wire types of the HTTP/JSON API (version 1, under
// /api/v1). Authentication is a single shared bearer token (Options.Token):
// when set, every request must carry "Authorization: Bearer <token>".
// Request bodies are capped (Options.MaxBodyBytes, default 8 MiB);
// oversized payloads get HTTP 413.
package sweepd

import (
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// APIBase prefixes every route of API version 1.
const APIBase = "/api/v1"

// SubmitRequest submits one sweep matrix. A matrix naming scenario specs
// is refused.
type SubmitRequest struct {
	Matrix sweep.Matrix `json:"matrix"`
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

// LeaseRequest asks for one job lease. Worker is a display identity; the
// lease ID, not the worker name, is the capability.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Grant hands a worker one leased job.
type Grant struct {
	LeaseID   string    `json:"lease_id"`
	Job       sweep.Job `json:"job"`
	TTLMillis int64     `json:"ttl_ms"`
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
// case: the job was already completed — first write wins, and
// determinism makes the loser's bytes identical anyway.
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// FailRequest reports a failed attempt; the server fails the job.
type FailRequest struct {
	Error string `json:"error"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
