package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
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
	// Timeout bounds one attempt's wall-clock time; 0 means no bound.
	// A timed-out attempt's goroutine runs on to completion in the
	// background (a simulation is not preemptible). A simulation cannot
	// run forever: sim.Run stops at deadlock, when the event queue drains
	// with cores unfinished, so Timeout bounds slow cells, not stuck ones.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed first
	// one. Simulation failures are deterministic, so retries mainly cover
	// environmental failures (artifact-store I/O, memory pressure).
	Retries int
	// Backoff is the base delay inserted before retry attempts: attempt k
	// (k >= 2) of a job waits RetryDelay(key, k, Backoff, BackoffSeed) —
	// exponential in k with seeded jitter, so concurrent retry storms
	// decorrelate without losing determinism. 0 (the default) disables the
	// wait; the first attempt never waits.
	Backoff time.Duration
	// BackoffSeed seeds the retry jitter. The delay schedule is a pure
	// function of (job key, attempt, Backoff, BackoffSeed): a rerun of the
	// same sweep waits the same intervals, and no attempt reads the global
	// math/rand source.
	BackoffSeed int64
	// Store, when set, checkpoints completed jobs and recalls cells
	// finished by an earlier, interrupted sweep. Jobs that exhaust their
	// attempts are recorded in the store manifest's failure ledger (see
	// Store.FailedCells) unless the failure was a cancellation.
	Store *Store
	// Progress, when set, observes every finished job. Calls are
	// serialized but arrive in completion order — display only; nothing
	// deterministic may be derived from it.
	Progress func(JobResult)
}

// JobResult is one job's outcome.
type JobResult struct {
	Job      Job
	Result   *sim.Result
	Err      error
	Cached   bool          // recalled from the store, not executed
	Attempts int           // executions this run (0 when cached/canceled)
	Wall     time.Duration // scheduling + execution wall time this run
}

// Report is a sweep's merged outcome. Jobs is sorted by Job.Key — never
// by completion order — so every rendering of a Report is deterministic.
type Report struct {
	Jobs     []JobResult
	Executed int // computed this run
	Cached   int // recalled from the store
	Failed   int // Err != nil after all attempts
	Wall     time.Duration
}

// Scheduler is the engine's source of work: Next hands a worker its next
// job, Finish delivers the outcome. Both are called concurrently from
// every worker of a Pool. The in-memory ListScheduler below drives local
// sweeps; internal/sweepd's lease table is the network-facing counterpart
// (leases, TTLs and requeues replace Next's simple cursor, but workers on
// both paths execute through the same Executor/RunAttempt pipeline).
type Scheduler interface {
	// Next returns the next job to execute; ok == false means the
	// scheduler is drained and the worker should exit.
	Next() (j Job, ok bool)
	// Finish delivers the outcome of a job handed out by Next.
	Finish(JobResult)
}

// ListScheduler feeds a fixed job list to a Pool in key order and collects
// the outcomes. Jobs with duplicate keys are collapsed (Matrix.Jobs never
// produces any).
type ListScheduler struct {
	mu   sync.Mutex
	jobs []Job
	next int
	res  map[string]JobResult
}

// NewListScheduler sorts jobs by key and returns a scheduler over them.
func NewListScheduler(jobs []Job) *ListScheduler {
	sorted := append([]Job(nil), jobs...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].Key() < sorted[k].Key() })
	return &ListScheduler{jobs: sorted, res: make(map[string]JobResult, len(sorted))}
}

// Next hands out the next job in key order.
func (l *ListScheduler) Next() (Job, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next >= len(l.jobs) {
		return Job{}, false
	}
	j := l.jobs[l.next]
	l.next++
	return j, true
}

// Finish records a job's outcome.
func (l *ListScheduler) Finish(jr JobResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.res[jr.Job.Key()] = jr
}

// Results returns the collected outcomes in key order, one per job.
func (l *ListScheduler) Results() []JobResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JobResult, len(l.jobs))
	for i, j := range l.jobs {
		out[i] = l.res[j.Key()]
	}
	return out
}

// Pool drains sched on a bounded worker pool: each worker repeatedly takes
// the next job, executes do, and delivers the outcome through Finish. It
// returns when the scheduler is drained and every in-flight job has
// finished. Cancellation is do's concern (Executor.Do returns a
// ctx-error JobResult without executing), so a canceled pool still
// delivers one Finish per job.
func Pool(ctx context.Context, workers int, sched Scheduler, do func(context.Context, Job) JobResult) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := sched.Next()
				if !ok {
					return
				}
				sched.Finish(do(ctx, j))
			}
		}()
	}
	wg.Wait()
}

// Run executes jobs on a bounded worker pool and returns the merged
// report. It never fails as a whole: per-job failures (including panics
// inside the RunFunc, converted to errors) are carried in the report, and
// ctx cancellation marks the not-yet-started jobs with ctx's error. The
// report's job order is the sorted key order regardless of worker count.
func Run(ctx context.Context, jobs []Job, run RunFunc, opt Options) *Report {
	start := time.Now()
	sched := NewListScheduler(jobs)
	exec := &Executor{
		Run:         run,
		Timeout:     opt.Timeout,
		Retries:     opt.Retries,
		Backoff:     opt.Backoff,
		BackoffSeed: opt.BackoffSeed,
		Store:       opt.Store,
	}
	var progMu sync.Mutex
	do := func(ctx context.Context, j Job) JobResult {
		jr := exec.Do(ctx, j)
		if opt.Progress != nil {
			progMu.Lock()
			opt.Progress(jr)
			progMu.Unlock()
		}
		return jr
	}
	Pool(ctx, opt.Workers, sched, do)

	rep := &Report{Jobs: sched.Results(), Wall: time.Since(start)}
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

// Executor resolves single jobs: store recall, then up to 1+Retries
// attempts with jittered backoff, each contained by RunAttempt. It is the
// per-job execution pipeline shared by Run's local pool and by
// internal/sweepd's workers (which replace the retry loop with the
// server's requeue protocol but keep the same attempt containment).
type Executor struct {
	Run         RunFunc
	Timeout     time.Duration
	Retries     int
	Backoff     time.Duration
	BackoffSeed int64
	Store       *Store
}

// Do resolves one job; see Executor.
func (e *Executor) Do(ctx context.Context, j Job) (jr JobResult) {
	// The named return is load-bearing: the deferred Wall stamp must land
	// on the value the caller receives, not on a dead local.
	jr = JobResult{Job: j}
	start := time.Now()
	defer func() { jr.Wall = time.Since(start) }()

	if e.Store != nil {
		if res, ok := e.Store.Lookup(j); ok {
			jr.Result = res
			jr.Cached = true
			return jr
		}
	}
	var lastErr error
	for attempt := 1; attempt <= 1+e.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if d := RetryDelay(j.Key(), attempt, e.Backoff, e.BackoffSeed); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				lastErr = err
				break
			}
		}
		jr.Attempts++
		res, err := RunAttempt(ctx, j, e.Run, e.Timeout)
		if err != nil {
			lastErr = err
			continue
		}
		jr.Result = res
		if e.Store != nil {
			if perr := e.Store.Put(j, res); perr != nil {
				jr.Err = perr
			}
		}
		return jr
	}
	jr.Err = fmt.Errorf("sweep: %s: %w", j.Key(), lastErr)
	// Interrupted is not failed: only genuine post-retry failures reach
	// the manifest's failure ledger, so a ^C'd sweep still resumes with a
	// clean status. The ledger write is best effort — the JobResult
	// already carries the error.
	if e.Store != nil && !errors.Is(lastErr, context.Canceled) && !errors.Is(lastErr, context.DeadlineExceeded) {
		_ = e.Store.MarkFailed(j, lastErr.Error())
	}
	return jr
}

// RunAttempt runs one attempt of a job with panic recovery and an optional
// wall-clock timeout. It is the single attempt-containment primitive: the
// local engine's Executor and internal/sweepd's remote workers both
// execute every simulation through it.
func RunAttempt(ctx context.Context, j Job, run RunFunc, timeout time.Duration) (*sim.Result, error) {
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
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-expired:
		return nil, fmt.Errorf("timed out after %s", timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// RetryDelay returns the pause before attempt k of the job with the given
// key: base << (k-2), scaled by a jitter factor in [0.5, 1.5) drawn from a
// rand seeded by (seed, key, k). Attempt 1 and base <= 0 wait nothing.
//
// The function is pure — the same sweep retries on the same schedule every
// run, which keeps tests deterministic — and it never touches the global
// math/rand source (spvet's wallclock check bans that in sim packages; the
// orchestrator holds itself to the same rule). internal/sweepd uses the
// same schedule for its server-side requeue gate, so a job retried locally
// and a job requeued by the server back off identically.
func RetryDelay(key string, attempt int, base time.Duration, seed int64) time.Duration {
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

// sleepCtx waits d or until ctx is canceled, whichever comes first.
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
