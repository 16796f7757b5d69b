package sweepd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spcoh/internal/sweep"
)

// This file is the lease table: a pure in-memory state machine with an
// injectable clock. All I/O — artifact store writes and HTTP — lives in
// server.go, so every lease-lifecycle transition is unit testable without
// sleeping.

// Lease errors. The HTTP layer maps ErrUnknownLease to 404 and
// ErrLeaseGone to 410.
var (
	// ErrUnknownLease: the lease ID was never issued (or predates a
	// server restart — in-memory state is rebuilt from the store, not
	// from leases, so an orphaned worker simply loses its attempt).
	ErrUnknownLease = errors.New("sweepd: unknown lease")
	// ErrLeaseGone: the lease was issued but is no longer active — it
	// expired and the job failed. A worker holding a gone lease should
	// stop heartbeating; its eventual Complete is still accepted (first
	// write wins).
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

// String renders the state for error messages.
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

// jobEntry is one job's scheduling state. A job is leased at most once:
// a cell is a deterministic simulation, so a failed attempt would fail the
// same way again, and a failed or expired lease is terminal.
type jobEntry struct {
	job sweep.Job

	state  jobState
	cached bool   // terminal via store recall, not execution
	errMsg string // terminal reason when stateFailed

	// The lease, valid while state == stateLeased.
	leaseID string
	expires time.Time
	worker  string
}

// queueConfig sizes the lease table.
type queueConfig struct {
	// TTL is the lease lifetime; heartbeats extend it. <= 0 means 1m.
	TTL time.Duration
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
	// first-write-wins duplicate detection (one per job at most)
	nextLease int
}

func newQueue(cfg queueConfig) *queue {
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &queue{
		cfg:    cfg,
		jobs:   make(map[string]*jobEntry),
		leases: make(map[string]string),
	}
}

// add registers a job if unknown. done marks it already terminal (recalled
// from the store). Jobs are shared across sweeps by key: a second sweep
// containing a known cell adopts its state, whatever it is.
func (q *queue) add(j sweep.Job, done bool) {
	key := j.Key()
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[key]; ok {
		return
	}
	e := &jobEntry{job: j}
	if done {
		e.state = stateDone
		e.cached = true
	}
	q.jobs[key] = e
	i := sort.SearchStrings(q.keys, key)
	q.keys = append(q.keys, "")
	copy(q.keys[i+1:], q.keys[i:])
	q.keys[i] = key
}

// grantInfo is a granted lease.
type grantInfo struct {
	leaseID string
	job     sweep.Job
}

// lease grants the first pending job in key order. A nil grant with
// drained == true means every known job is terminal.
func (q *queue) lease(worker string) (*grantInfo, bool) {
	now := q.cfg.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, key := range q.keys {
		e := q.jobs[key]
		if e.state != statePending {
			continue
		}
		q.nextLease++
		id := fmt.Sprintf("L%08d", q.nextLease)
		e.state = stateLeased
		e.leaseID = id
		e.expires = now.Add(q.cfg.TTL)
		e.worker = worker
		q.leases[id] = key
		return &grantInfo{leaseID: id, job: e.job}, false
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
	e, err := q.activeLocked(leaseID)
	if err != nil {
		return err
	}
	e.expires = now.Add(q.cfg.TTL)
	return nil
}

// activeLocked resolves a lease that is still the job's live lease; the
// caller holds q.mu.
func (q *queue) activeLocked(leaseID string) (*jobEntry, error) {
	key, ok := q.leases[leaseID]
	if !ok {
		return nil, ErrUnknownLease
	}
	e := q.jobs[key]
	if e.state != stateLeased || e.leaseID != leaseID {
		return e, ErrLeaseGone
	}
	return e, nil
}

// jobForLease resolves a lease to its job for completion. done reports
// that the job is already stateDone — the duplicate-completion no-op case.
// A lease resolves after it expired, so a worker whose lease lapsed
// mid-run can still deliver its (deterministic, thus only possible)
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
// store. Idempotent; it also un-fails a job whose completion arrived
// after its lease expired.
func (q *queue) markDone(leaseID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.leases[leaseID]
	if !ok {
		return
	}
	e := q.jobs[key]
	e.state = stateDone
	e.errMsg = ""
	e.leaseID = ""
}

// fail terminally fails the job behind an active lease. It returns the
// job and whether this report failed it (so the server can write the
// store's failure ledger); a report on a lease that is no longer active
// is stale and changes nothing.
func (q *queue) fail(leaseID, msg string) (sweep.Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, err := q.activeLocked(leaseID)
	switch {
	case errors.Is(err, ErrLeaseGone):
		return e.job, false, nil
	case err != nil:
		return sweep.Job{}, false, err
	}
	e.state = stateFailed
	e.errMsg = msg
	e.leaseID = ""
	return e.job, true, nil
}

// expire terminally fails every job whose lease is overdue and returns
// those jobs, so the server can record them in the store's failure
// ledger. Called by the server's expiry ticker; tests call it directly
// with a fake clock.
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
		e.state = stateFailed
		e.errMsg = fmt.Sprintf("lease expired (worker %s)", e.worker)
		e.leaseID = ""
		dead = append(dead, e.job)
	}
	return dead
}

// outcome reports one job's state, whether it was recalled from the
// store, and its terminal error.
func (q *queue) outcome(key string) (jobState, bool, string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.jobs[key]
	return e.state, e.cached, e.errMsg
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
