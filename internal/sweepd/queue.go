package sweepd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"spcoh/internal/sweep"
)

// This file is the lease table: a pure in-memory state machine with an
// injectable clock. All I/O — artifact store writes, spec file reads,
// HTTP — lives in server.go, so every lease-lifecycle transition is unit
// testable without sleeping.

// Lease errors. The HTTP layer maps ErrUnknownLease to 404 and
// ErrLeaseGone to 410.
var (
	// ErrUnknownLease: the lease ID was never issued (or predates a
	// server restart — in-memory state is rebuilt from the store, not
	// from leases, so an orphaned worker simply loses its attempt).
	ErrUnknownLease = errors.New("sweepd: unknown lease")
	// ErrLeaseGone: the lease was issued but is no longer active — it
	// expired and the job was requeued or finished elsewhere. A worker
	// holding a gone lease should stop heartbeating; its eventual
	// Complete is still accepted (first write wins).
	ErrLeaseGone = errors.New("sweepd: lease gone")
)

// jobState is the lease table's per-job state.
type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateFailed
)

// String renders the state for the status API.
func (s jobState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateLeased:
		return "leased"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("jobState(%d)", uint8(s))
	}
}

// attempt is one entry of a job's attempt history.
type attempt struct {
	worker  string
	leaseID string
	start   time.Time
	end     time.Time // zero while running
	err     string    // "" = success
	expired bool      // ended by lease expiry, not a worker report
}

// jobEntry is one job's scheduling state.
type jobEntry struct {
	job      sweep.Job
	specPath string // server-side spec file ("" for built-in cells)

	state    jobState
	cached   bool // terminal via store recall, not execution
	attempts []attempt

	// Active lease, valid while state == stateLeased.
	leaseID string
	expires time.Time

	// notBefore gates re-leasing after a failed attempt (jittered
	// exponential backoff, same schedule as the local engine's retries).
	notBefore time.Time

	errMsg string // last attempt's error; terminal reason when stateFailed
}

// queueConfig sizes the lease table.
type queueConfig struct {
	// TTL is the lease lifetime; heartbeats extend it. <= 0 means 1m.
	TTL time.Duration
	// MaxAttempts bounds executions per job (1 + retries). <= 0 means 1.
	MaxAttempts int
	// Backoff/BackoffSeed parameterize retryDelay for the requeue gate
	// after a failed attempt.
	Backoff     time.Duration
	BackoffSeed int64
	// now is the clock; tests inject a fake. nil means time.Now.
	now func() time.Time
}

// queue is the lease table. All fields are guarded by mu; methods never
// block and never do I/O.
type queue struct {
	mu  sync.Mutex
	cfg queueConfig

	jobs   map[string]*jobEntry // by job key
	keys   []string             // sorted; leases are granted in key order
	leases map[string]string    // lease ID → job key, kept for the store's
	// first-write-wins duplicate detection (bounded by total attempts)
	nextLease int

	// changed is closed and replaced on every state transition; watchers
	// re-snapshot when it fires.
	changed chan struct{}
}

func newQueue(cfg queueConfig) *queue {
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &queue{
		cfg:     cfg,
		jobs:    make(map[string]*jobEntry),
		leases:  make(map[string]string),
		changed: make(chan struct{}),
	}
}

// bumpLocked wakes watchers; the caller holds q.mu.
func (q *queue) bumpLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// watch returns a channel that fires (closes) on the next state change.
func (q *queue) watch() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.changed
}

// add registers a job if unknown. done marks it already terminal (recalled
// from the store). Jobs are shared across sweeps by key: a second sweep
// containing a known cell adopts its state, whatever it is.
func (q *queue) add(j sweep.Job, specPath string, done bool) {
	key := j.Key()
	q.mu.Lock()
	defer q.mu.Unlock()
	if e, ok := q.jobs[key]; ok {
		if e.specPath == "" && specPath != "" {
			e.specPath = specPath
		}
		return
	}
	e := &jobEntry{job: j, specPath: specPath}
	if done {
		e.state = stateDone
		e.cached = true
	}
	q.jobs[key] = e
	i := sort.SearchStrings(q.keys, key)
	q.keys = append(q.keys, "")
	copy(q.keys[i+1:], q.keys[i:])
	q.keys[i] = key
	q.bumpLocked()
}

// grantInfo is a granted lease before the server attaches spec content.
type grantInfo struct {
	leaseID  string
	job      sweep.Job
	specPath string
}

// lease grants the first eligible pending job in key order. A nil grant
// with drained == true means every known job is terminal.
func (q *queue) lease(worker string) (*grantInfo, bool) {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, key := range q.keys {
		e := q.jobs[key]
		if e.state != statePending || now.Before(e.notBefore) {
			continue
		}
		q.nextLease++
		id := fmt.Sprintf("L%08d", q.nextLease)
		e.state = stateLeased
		e.leaseID = id
		e.expires = now.Add(q.cfg.TTL)
		e.attempts = append(e.attempts, attempt{worker: worker, leaseID: id, start: now})
		q.leases[id] = key
		q.bumpLocked()
		return &grantInfo{leaseID: id, job: e.job, specPath: e.specPath}, false
	}
	return nil, q.drainedLocked()
}

// drainedLocked reports whether at least one job exists and all are
// terminal; the caller holds q.mu.
func (q *queue) drainedLocked() bool {
	if len(q.keys) == 0 {
		return false
	}
	for _, key := range q.keys {
		switch q.jobs[key].state {
		case stateDone, stateFailed:
		default:
			return false
		}
	}
	return true
}

// heartbeat extends an active lease's TTL.
func (q *queue) heartbeat(leaseID string) error {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.leases[leaseID]
	if !ok {
		return ErrUnknownLease
	}
	e := q.jobs[key]
	if e.state != stateLeased || e.leaseID != leaseID {
		return ErrLeaseGone
	}
	e.expires = now.Add(q.cfg.TTL)
	return nil
}

// jobForLease resolves a lease to its job for completion. done reports
// that the job is already stateDone — the duplicate-completion no-op case.
// Any lease ever issued for the job resolves, so a worker whose lease
// expired mid-run can still deliver its (deterministic, thus identical)
// result: first write wins, later writes are no-ops.
func (q *queue) jobForLease(leaseID string) (sweep.Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.leases[leaseID]
	if !ok {
		return sweep.Job{}, false, ErrUnknownLease
	}
	e := q.jobs[key]
	return e.job, e.state == stateDone, nil
}

// markDone finishes the job behind leaseID after its result reached the
// store. Idempotent; it also un-fails a job whose late completion arrived
// after attempts were exhausted (the result is valid — determinism makes
// it the only possible result).
func (q *queue) markDone(leaseID string) {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.leases[leaseID]
	if !ok {
		return
	}
	e := q.jobs[key]
	q.closeAttemptLocked(e, leaseID, "", false, now)
	if e.state == stateDone {
		return
	}
	e.state = stateDone
	e.errMsg = ""
	e.leaseID = ""
	q.bumpLocked()
}

// fail records a failed attempt and requeues or terminally fails the job.
// It returns the job and whether this failure was terminal (so the server
// can write the store's failure ledger).
func (q *queue) fail(leaseID, msg string) (sweep.Job, bool, error) {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.leases[leaseID]
	if !ok {
		return sweep.Job{}, false, ErrUnknownLease
	}
	e := q.jobs[key]
	if e.state != stateLeased || e.leaseID != leaseID {
		// Stale report: the job resolved elsewhere, or expiry already
		// requeued (possibly re-leased) it. Close the old attempt record
		// if expiry hasn't; the job's current state is untouched.
		q.closeAttemptLocked(e, leaseID, msg, false, now)
		return e.job, false, nil
	}
	e.leaseID = ""
	q.closeAttemptLocked(e, leaseID, msg, false, now)
	return e.job, q.requeueLocked(e, key, msg, now), nil
}

// expire scans for overdue leases and requeues (or terminally fails)
// their jobs. It returns the jobs that became terminally failed, so the
// server can record them in the store's failure ledger. Called by the
// server's expiry ticker; tests call it directly with a fake clock.
func (q *queue) expire() []sweep.Job {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	var dead []sweep.Job
	for _, key := range q.keys {
		e := q.jobs[key]
		if e.state != stateLeased || !now.After(e.expires) {
			continue
		}
		msg := "lease expired"
		if n := len(e.attempts); n > 0 {
			msg = fmt.Sprintf("lease expired (worker %s)", e.attempts[n-1].worker)
		}
		q.closeAttemptExpiredLocked(e, e.leaseID, msg, now)
		e.leaseID = ""
		if q.requeueLocked(e, key, msg, now) {
			dead = append(dead, e.job)
		}
	}
	return dead
}

// requeueLocked moves a non-terminal entry back to pending, or to
// stateFailed once attempts are exhausted; returns true when terminal.
// The caller holds q.mu.
func (q *queue) requeueLocked(e *jobEntry, key, msg string, now time.Time) bool {
	e.errMsg = msg
	if len(e.attempts) >= q.cfg.MaxAttempts {
		e.state = stateFailed
		q.bumpLocked()
		return true
	}
	e.state = statePending
	e.notBefore = now.Add(retryDelay(key, len(e.attempts)+1, q.cfg.Backoff, q.cfg.BackoffSeed))
	q.bumpLocked()
	return false
}

// retryDelay returns the requeue pause before attempt k of the job with
// the given key: base << (k-2), scaled by a jitter factor in [0.5, 1.5)
// drawn from a rand seeded by (seed, key, k). Attempt 1 and base <= 0 wait
// nothing.
//
// The function is pure — the same sweep requeues on the same schedule
// every run, which keeps tests deterministic — and it never touches the
// global math/rand source.
func retryDelay(key string, attempt int, base time.Duration, seed int64) time.Duration {
	if base <= 0 || attempt <= 1 {
		return 0
	}
	exp := attempt - 2
	if exp > 16 {
		exp = 16 // cap the exponential; 65536x base is already absurd
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(attempt)<<32))
	jitter := 0.5 + rng.Float64() // [0.5, 1.5)
	return time.Duration(float64(base<<exp) * jitter)
}

// closeAttemptLocked stamps the end of the attempt issued as leaseID, if
// it is still open. The caller holds q.mu.
func (q *queue) closeAttemptLocked(e *jobEntry, leaseID, errMsg string, expired bool, now time.Time) {
	for i := len(e.attempts) - 1; i >= 0; i-- {
		a := &e.attempts[i]
		if a.leaseID != leaseID {
			continue
		}
		if a.end.IsZero() {
			a.end = now
			a.err = errMsg
			a.expired = expired
		}
		return
	}
}

func (q *queue) closeAttemptExpiredLocked(e *jobEntry, leaseID, msg string, now time.Time) {
	q.closeAttemptLocked(e, leaseID, msg, true, now)
}

// counts summarizes the given keys; nil means every known job.
func (q *queue) counts(keys []string) Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	if keys == nil {
		keys = q.keys
	}
	var c Counts
	for _, key := range keys {
		e, ok := q.jobs[key]
		if !ok {
			continue
		}
		c.Jobs++
		switch e.state {
		case statePending:
			c.Pending++
		case stateLeased:
			c.Leased++
		case stateDone:
			c.Done++
			if e.cached {
				c.Cached++
			}
		case stateFailed:
			c.Failed++
		}
	}
	return c
}

// status snapshots the given keys (which must be sorted; the result keeps
// their order) for the status API.
func (q *queue) status(keys []string) []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(keys))
	for _, key := range keys {
		e, ok := q.jobs[key]
		if !ok {
			continue
		}
		out = append(out, q.jobStatusLocked(key, e))
	}
	return out
}

// jobStatusLocked renders one entry; the caller holds q.mu.
func (q *queue) jobStatusLocked(key string, e *jobEntry) JobStatus {
	js := JobStatus{
		Key:      key,
		State:    e.state.String(),
		Cached:   e.cached,
		Attempts: len(e.attempts),
		Error:    e.errMsg,
	}
	if n := len(e.attempts); n > 0 {
		last := e.attempts[n-1]
		js.Worker = last.worker
		if !last.end.IsZero() {
			js.Seconds = last.end.Sub(last.start).Seconds()
		}
	}
	return js
}

// terminalStatuses returns, in order, the keys among the given sorted set
// that are terminal and not yet in seen, marking them seen. done reports
// whether the whole set is terminal. This powers the status stream: each
// watcher replays current terminal states, then follows transitions.
func (q *queue) terminalStatuses(keys []string, seen map[string]bool) ([]JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []JobStatus
	done := true
	for _, key := range keys {
		e, ok := q.jobs[key]
		if !ok {
			done = false
			continue
		}
		if e.state != stateDone && e.state != stateFailed {
			done = false
			continue
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q.jobStatusLocked(key, e))
	}
	return out, done
}
