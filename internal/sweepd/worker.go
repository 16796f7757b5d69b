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

// WorkerAPI is everything a worker needs from its job source. *Client
// implements it over HTTP and *Server by direct calls.
type WorkerAPI interface {
	// Lease requests one job. A nil grant means no job is available;
	// drained additionally means every known job is terminal.
	Lease(worker string) (g *Grant, drained bool, err error)
	// Heartbeat extends the lease TTL while the job runs.
	Heartbeat(leaseID string) error
	// Complete pushes the result. duplicate marks the first-write-wins
	// no-op: the job was already completed.
	Complete(leaseID string, res *sim.Result) (duplicate bool, err error)
	// Fail reports a failed attempt; the server fails the job.
	Fail(leaseID, errMsg string) error
}

// ExecFunc executes one leased job. spec is always nil: the server serves
// built-in profile cells only. The parameter stays for callers written
// against it.
type ExecFunc func(j sweep.Job, spec *scenario.Spec) (*sim.Result, error)

// DefaultExec runs the cell through internal/experiments — the same
// executor a local spsweep run uses, so a cell computes identical bytes
// wherever it lands. spec is ignored (see ExecFunc).
func DefaultExec(j sweep.Job, spec *scenario.Spec) (*sim.Result, error) {
	return experiments.RunCell(j.RunConfig, j.Bench, j.Kind)
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// ID names this worker in leases. Slots append "/<n>". Defaults to
	// "worker".
	ID string
	// Slots is the number of concurrent leases (goroutines); <= 0 means 1.
	Slots int
	// Poll is the idle wait between lease attempts when no job is
	// available (and the retry wait after a transport error); <= 0 means
	// 200ms.
	Poll time.Duration
	// Drain exits the worker once the server reports no work left instead
	// of polling forever.
	Drain bool
	// Exec executes jobs; nil means DefaultExec.
	Exec ExecFunc
}

// RunWorker leases, executes and reports jobs until ctx is canceled (or,
// with Drain, until the server has no work left). Every attempt is
// contained by sweep.RunAttempt (panic → error).
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
		if err == nil && g != nil {
			runGrant(ctx, api, opt, g)
			continue
		}
		if err == nil && drained && opt.Drain {
			return
		}
		// No job yet, or a transport error (server restarting, network
		// blip): wait a poll interval; the lease protocol makes the retry
		// safe.
		if sleepCtx(ctx, opt.Poll) != nil {
			return
		}
	}
}

// runGrant executes one leased job and reports the outcome. A report lost
// in transit is not retried: the lease lapses and fails the job.
func runGrant(ctx context.Context, api WorkerAPI, opt WorkerOptions, g *Grant) {
	// Heartbeat for the lease while the simulation runs; a dead worker
	// stops heartbeating and the server fails the job after the TTL.
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		heartbeatLoop(hbCtx, api, g)
	}()

	run := func(j sweep.Job) (*sim.Result, error) { return opt.Exec(j, nil) }
	res, err := sweep.RunAttempt(ctx, g.Job, run)
	stopHB()
	hbDone.Wait()

	if err != nil {
		_ = api.Fail(g.LeaseID, err.Error())
		return
	}
	_, _ = api.Complete(g.LeaseID, res)
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
