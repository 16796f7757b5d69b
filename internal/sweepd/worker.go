package sweepd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spcoh/internal/experiments"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// WorkerAPI is everything a worker needs from its job source. Two
// implementations share every caller: *Client (HTTP, for
// `spsweep work -server`) and *Server (direct calls, for the daemon's
// in-process pool) — one worker code path, two transports.
type WorkerAPI interface {
	// Lease requests one job. A nil grant means no job is available;
	// drained additionally means every known job is terminal.
	Lease(worker string) (g *Grant, drained bool, err error)
	// Heartbeat extends the lease TTL while the job runs.
	Heartbeat(leaseID string) error
	// Complete pushes the result. duplicate marks the first-write-wins
	// no-op: the job was already completed elsewhere.
	Complete(leaseID string, res *sim.Result) (duplicate bool, err error)
	// Fail reports a failed attempt; the server requeues within the
	// job's attempt budget.
	Fail(leaseID, errMsg string) error
}

// ExecFunc executes one leased job. spec is non-nil exactly for
// scenario-spec cells, already verified against Job.SpecDigest.
type ExecFunc func(j sweep.Job, spec *scenario.Spec) (*sim.Result, error)

// DefaultExec runs the cell through internal/experiments — the same
// executor a local spsweep run uses, so a cell computes identical bytes
// wherever it lands.
func DefaultExec(j sweep.Job, spec *scenario.Spec) (*sim.Result, error) {
	if j.SpecDigest == "" {
		return experiments.RunCell(j.RunConfig, j.Bench, j.Kind)
	}
	if spec == nil {
		return nil, fmt.Errorf("sweepd: job %s needs spec %.12s but none was provided", j.Key(), j.SpecDigest)
	}
	return experiments.RunSpecCell(j.RunConfig, spec, j.Kind)
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// ID names this worker in leases and attempt histories. Slots append
	// "/<n>". Defaults to "worker".
	ID string
	// Slots is the number of concurrent leases (goroutines); <= 0 means 1.
	Slots int
	// Poll is the idle wait between lease attempts when no job is
	// available (and the retry wait after a transport error); <= 0 means
	// 200ms.
	Poll time.Duration
	// Timeout bounds one attempt's wall time (sweep.RunAttempt's
	// backstop); 0 means none. The lease TTL still protects the server: a
	// hung worker stops heartbeating only if it dies, but a timed-out
	// attempt reports Fail promptly.
	Timeout time.Duration
	// Drain exits the worker once the server reports no work left instead
	// of polling forever.
	Drain bool
	// Exec executes jobs; nil means DefaultExec.
	Exec ExecFunc
	// Log, when set, receives one line per worker event (lease, done,
	// fail). Display only.
	Log func(format string, args ...any)
}

// RunWorker leases, executes and reports jobs until ctx is canceled (or,
// with Drain, until the server has no work left). It is the one worker
// code path: the daemon's in-process pool calls it with the Server itself
// as api; `spsweep work` calls it with an HTTP *Client. Every attempt is
// contained by sweep.RunAttempt (panic → error, optional timeout), and
// every scenario-spec cell re-verifies its spec content against the digest
// in the job identity before executing.
func RunWorker(ctx context.Context, api WorkerAPI, opt WorkerOptions) {
	if opt.ID == "" {
		opt.ID = "worker"
	}
	if opt.Slots <= 0 {
		opt.Slots = 1
	}
	if opt.Poll <= 0 {
		opt.Poll = 200 * time.Millisecond
	}
	if opt.Exec == nil {
		opt.Exec = DefaultExec
	}
	if opt.Log == nil {
		opt.Log = func(string, ...any) {}
	}
	var wg sync.WaitGroup
	for slot := 0; slot < opt.Slots; slot++ {
		id := opt.ID
		if opt.Slots > 1 {
			id = fmt.Sprintf("%s/%d", opt.ID, slot)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerLoop(ctx, api, opt, id)
		}()
	}
	wg.Wait()
}

// workerLoop is one lease slot.
func workerLoop(ctx context.Context, api WorkerAPI, opt WorkerOptions, id string) {
	for ctx.Err() == nil {
		g, drained, err := api.Lease(id)
		if err != nil {
			// Transport errors (server restarting, network blip) are
			// retried at the poll cadence; the lease protocol makes the
			// retry safe.
			opt.Log("%s: lease: %v", id, err)
			if sleepCtx(ctx, opt.Poll) != nil {
				return
			}
			continue
		}
		if g == nil {
			if drained && opt.Drain {
				return
			}
			if sleepCtx(ctx, opt.Poll) != nil {
				return
			}
			continue
		}
		runGrant(ctx, api, opt, id, g)
	}
}

// runGrant executes one leased job and reports the outcome.
func runGrant(ctx context.Context, api WorkerAPI, opt WorkerOptions, id string, g *Grant) {
	job := g.Job
	var spec *scenario.Spec
	if job.SpecDigest != "" {
		sp, err := scenario.Parse(g.Spec)
		if err != nil {
			reportFail(api, opt, id, g, fmt.Sprintf("bad spec payload: %v", err))
			return
		}
		if d := sp.Digest(); d != job.SpecDigest {
			reportFail(api, opt, id, g, fmt.Sprintf(
				"spec digest mismatch: payload %.12s, job wants %.12s", d, job.SpecDigest))
			return
		}
		spec = sp
	}

	// Heartbeat for the lease while the simulation runs; a dead worker
	// stops heartbeating and the server requeues after the TTL.
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		heartbeatLoop(hbCtx, api, g)
	}()

	run := func(sweep.Job) (*sim.Result, error) { return opt.Exec(job, spec) }
	start := time.Now()
	res, err := sweep.RunAttempt(ctx, job, run, opt.Timeout)
	stopHB()
	hbDone.Wait()

	if err != nil {
		reportFail(api, opt, id, g, err.Error())
		return
	}
	dup, cerr := api.Complete(g.LeaseID, res)
	switch {
	case cerr != nil:
		opt.Log("%s: %s: push failed after %.1fs: %v", id, job.Key(), time.Since(start).Seconds(), cerr)
	case dup:
		opt.Log("%s: %s: duplicate (completed elsewhere) %.1fs", id, job.Key(), time.Since(start).Seconds())
	default:
		opt.Log("%s: %s: ok %.1fs", id, job.Key(), time.Since(start).Seconds())
	}
}

// reportFail pushes a failed attempt, logging but tolerating transport
// errors (the lease TTL requeues the job if the report is lost).
func reportFail(api WorkerAPI, opt WorkerOptions, id string, g *Grant, msg string) {
	opt.Log("%s: %s: FAIL: %s", id, g.Job.Key(), msg)
	if err := api.Fail(g.LeaseID, msg); err != nil {
		opt.Log("%s: %s: fail report lost: %v", id, g.Job.Key(), err)
	}
}

// heartbeatLoop renews the lease at a third of its TTL until canceled.
func heartbeatLoop(ctx context.Context, api WorkerAPI, g *Grant) {
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	interval := ttl / 3
	if interval <= 0 {
		interval = 15 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			err := api.Heartbeat(g.LeaseID)
			if errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrUnknownLease) {
				// The server resolved the job elsewhere; the eventual
				// Complete is still safe (duplicate no-op). Transient
				// transport errors keep trying.
				return
			}
		}
	}
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
