package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spcoh/internal/sim"
)

// RunFunc executes one job and returns its measurements. The engine calls
// it from multiple goroutines; implementations must not share mutable
// state across calls (experiments.RunCell, the production executor, shares
// none by construction).
type RunFunc func(Job) (*sim.Result, error)

// Options configures the engine.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Store, when set, checkpoints completed jobs and recalls cells
	// finished by an earlier, interrupted sweep. Jobs that fail are
	// recorded in the store manifest's failure ledger (see
	// Store.FailedCells) unless the failure was a cancellation.
	Store *Store
	// Progress, when set, observes every finished job. Calls are
	// serialized but arrive in completion order — display only; nothing
	// deterministic may be derived from it.
	Progress func(JobResult)
}

// JobResult is one job's outcome.
type JobResult struct {
	Job    Job
	Result *sim.Result
	Err    error
	Cached bool          // recalled from the store, not executed
	Wall   time.Duration // scheduling + execution wall time this run
}

// Report is a sweep's merged outcome. Jobs is sorted by Job.Key — never
// by completion order — so every rendering of a Report is deterministic.
type Report struct {
	Jobs     []JobResult
	Executed int // computed this run
	Cached   int // recalled from the store
	Failed   int // Err != nil
	Wall     time.Duration
}

// Run executes jobs on a bounded worker pool and returns the merged
// report. It never fails as a whole: per-job failures (including panics
// inside the RunFunc, converted to errors) are carried in the report, and
// ctx cancellation marks the not-yet-started jobs with ctx's error.
//
// The jobs are sorted by key before any worker starts, and each worker
// writes a job's outcome into that job's slot of the report, so the
// report's order is the key order regardless of worker count or
// completion order.
func Run(ctx context.Context, jobs []Job, run RunFunc, opt Options) *Report {
	start := time.Now()
	sorted := append([]Job(nil), jobs...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].Key() < sorted[k].Key() })
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	rep := &Report{Jobs: make([]JobResult, len(sorted))}
	var next atomic.Int64
	var progMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sorted) {
					return
				}
				t := time.Now()
				jr := runJob(ctx, sorted[i], run, opt.Store)
				jr.Wall = time.Since(t)
				rep.Jobs[i] = jr
				if opt.Progress != nil {
					progMu.Lock()
					opt.Progress(jr)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	rep.Wall = time.Since(start)
	for _, jr := range rep.Jobs {
		switch {
		case jr.Err != nil:
			rep.Failed++
		case jr.Cached:
			rep.Cached++
		default:
			rep.Executed++
		}
	}
	return rep
}

// runJob resolves one job: a store recall, else exactly one attempt
// contained by RunAttempt, checkpointed on success. A cell is a
// deterministic simulation, so a failed one fails the same way on every
// attempt; it is not retried but recorded in the store's failure ledger.
func runJob(ctx context.Context, j Job, run RunFunc, store *Store) JobResult {
	jr := JobResult{Job: j}
	if store != nil {
		if res, ok := store.Lookup(j); ok {
			jr.Result = res
			jr.Cached = true
			return jr
		}
	}
	err := ctx.Err()
	if err == nil {
		var res *sim.Result
		if res, err = RunAttempt(ctx, j, run); err == nil {
			jr.Result = res
			if store != nil {
				jr.Err = store.Put(j, res)
			}
			return jr
		}
	}
	jr.Err = fmt.Errorf("sweep: %s: %w", j.Key(), err)
	// Interrupted is not failed: only genuine failures reach the
	// manifest's failure ledger, so a ^C'd sweep still resumes with a
	// clean status. The ledger write is best effort — the JobResult
	// already carries the error.
	if store != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		_ = store.MarkFailed(j, err.Error())
	}
	return jr
}

// RunAttempt runs one attempt of a job with panic recovery, returning
// early when ctx is canceled. It is the single attempt-containment
// primitive: the local engine and internal/sweepd's workers both execute
// every simulation through it.
func RunAttempt(ctx context.Context, j Job, run RunFunc) (*sim.Result, error) {
	type outcome struct {
		res *sim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		res, err := run(j)
		ch <- outcome{res: res, err: err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
