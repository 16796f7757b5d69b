package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spcoh/internal/event"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
)

// fakeResult builds a deterministic synthetic result from a job spec.
func fakeResult(j Job) *sim.Result {
	r := &sim.Result{Benchmark: j.Bench, Predictor: j.Kind}
	r.Cycles = event.Time(1000 + 13*int64(len(j.Bench)) + 7*j.Seed)
	r.Nodes.Misses = uint64(100 + len(j.Kind))
	r.Nodes.Communicating = 40
	r.Nodes.NonCommunicating = r.Nodes.Misses - 40
	r.Net.Bytes = uint64(4096 * (j.Seed + 1))
	return r
}

func fakeRun(j Job) (*sim.Result, error) { return fakeResult(j), nil }

func testMatrix() Matrix {
	return Matrix{
		Benches: []string{"beta", "alpha", "gamma"},
		Kinds:   []string{"sp", "dir"},
		Seeds:   []int64{42, 7},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

func TestMatrixJobsSortedAndComplete(t *testing.T) {
	jobs := testMatrix().Jobs()
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].Key() >= jobs[i].Key() {
			t.Fatalf("jobs not strictly sorted: %q >= %q", jobs[i-1].Key(), jobs[i].Key())
		}
	}
	// Duplicate dimension values collapse.
	m := testMatrix()
	m.Seeds = []int64{42, 42}
	if got := len(m.Jobs()); got != 6 {
		t.Fatalf("duplicate seeds not collapsed: %d jobs, want 6", got)
	}
}

func TestMatrixDigestInvariantToSpelling(t *testing.T) {
	a := testMatrix()
	b := testMatrix()
	b.Benches = []string{"gamma", "beta", "alpha"} // same cells, different order
	if a.Digest() != b.Digest() {
		t.Fatal("matrix digest must depend on the cell set, not dimension order")
	}
	b.Seeds = []int64{42}
	if a.Digest() == b.Digest() {
		t.Fatal("different cell sets must have different digests")
	}
}

func TestJobDigestSensitivity(t *testing.T) {
	rc := func(threads int, scale float64, seed int64) runcfg.RunConfig {
		return runcfg.RunConfig{Threads: threads, Scale: scale, Seed: seed}
	}
	j := Job{Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.25, 42)}
	base := j.Digest()
	for name, mut := range map[string]Job{
		"bench":   {Bench: "fmm", Kind: "sp", RunConfig: rc(16, 0.25, 42)},
		"kind":    {Bench: "ocean", Kind: "dir", RunConfig: rc(16, 0.25, 42)},
		"threads": {Bench: "ocean", Kind: "sp", RunConfig: rc(8, 0.25, 42)},
		"scale":   {Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.5, 42)},
		"seed":    {Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.25, 43)},
	} {
		if mut.Digest() == base {
			t.Errorf("changing %s did not change the digest", name)
		}
	}
}

// TestMergeDeterminism: the merged output of an N-worker run is
// byte-identical to a single-worker run, for every renderer.
func TestMergeDeterminism(t *testing.T) {
	jobs := testMatrix().Jobs()
	render := func(workers int) (string, string, string) {
		rep := Run(context.Background(), jobs, fakeRun, Options{Workers: workers})
		var tab, csv, js bytes.Buffer
		rep.FormatTable(&tab)
		if err := rep.FormatCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := rep.FormatJSON(&js); err != nil {
			t.Fatal(err)
		}
		return tab.String(), csv.String(), js.String()
	}
	tab1, csv1, js1 := render(1)
	for _, workers := range []int{2, 4, 8} {
		tabN, csvN, jsN := render(workers)
		if tabN != tab1 {
			t.Fatalf("table output differs between 1 and %d workers:\n%s\n---\n%s", workers, tab1, tabN)
		}
		if csvN != csv1 {
			t.Fatalf("csv output differs between 1 and %d workers", workers)
		}
		if jsN != js1 {
			t.Fatalf("json output differs between 1 and %d workers", workers)
		}
	}
}

// TestReportOrderUnderAdversarialScheduling: jobs finishing in reverse
// order still merge in key order.
func TestReportOrderUnderAdversarialScheduling(t *testing.T) {
	jobs := testMatrix().Jobs()
	var mu sync.Mutex
	launched := 0
	slow := func(j Job) (*sim.Result, error) {
		mu.Lock()
		launched++
		delay := time.Duration(len(jobs)-launched) * time.Millisecond
		mu.Unlock()
		time.Sleep(delay) // earlier-launched (lower-key) jobs finish later
		return fakeResult(j), nil
	}
	rep := Run(context.Background(), jobs, slow, Options{Workers: len(jobs)})
	for i, jr := range rep.Jobs {
		if jr.Job.Key() != jobs[i].Key() {
			t.Fatalf("report slot %d = %s, want %s (completion order leaked)", i, jr.Job.Key(), jobs[i].Key())
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	jobs := testMatrix().Jobs()
	bomb := jobs[3].Key()
	run := func(j Job) (*sim.Result, error) {
		if j.Key() == bomb {
			panic("boom")
		}
		return fakeResult(j), nil
	}
	rep := Run(context.Background(), jobs, run, Options{Workers: 4})
	if rep.Failed != 1 || rep.Executed != len(jobs)-1 {
		t.Fatalf("failed=%d executed=%d, want 1/%d", rep.Failed, rep.Executed, len(jobs)-1)
	}
	for _, jr := range rep.Jobs {
		if jr.Job.Key() == bomb {
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "boom") {
				t.Fatalf("panic not converted to error: %v", jr.Err)
			}
		} else if jr.Err != nil {
			t.Fatalf("innocent job %s failed: %v", jr.Job.Key(), jr.Err)
		}
	}
}

// TestFailedCellRunsOnce: a cell is deterministic, so a failure is not
// retried; it is reported and recorded in the store's failure ledger.
func TestFailedCellRunsOnce(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testMatrix().Jobs()[:1]
	calls := 0
	var mu sync.Mutex
	alwaysFail := func(Job) (*sim.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("permanent")
	}
	rep := Run(context.Background(), jobs, alwaysFail, Options{Workers: 1, Store: store})
	if calls != 1 {
		t.Fatalf("executor called %d times, want 1", calls)
	}
	if rep.Failed != 1 || !strings.Contains(rep.Jobs[0].Err.Error(), "permanent") {
		t.Fatalf("want permanent failure, got %v", rep.Jobs[0].Err)
	}
	if failed := store.FailedCells(); len(failed) != 1 || failed[jobs[0].Key()] != "permanent" {
		t.Fatalf("ledger after failed cell: %v", failed)
	}
}

func TestContextCancelMarksPendingJobs(t *testing.T) {
	jobs := testMatrix().Jobs()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	run := func(j Job) (*sim.Result, error) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(j), nil
	}
	rep := Run(ctx, jobs, run, Options{Workers: 1})
	if rep.Failed == 0 {
		t.Fatal("cancellation produced no failed jobs")
	}
	for _, jr := range rep.Jobs {
		if jr.Err == nil {
			continue
		}
		if !errors.Is(jr.Err, context.Canceled) {
			t.Fatalf("%s failed with non-cancellation error: %v", jr.Job.Key(), jr.Err)
		}
	}
	if rep.Executed+rep.Failed != len(jobs) {
		t.Fatalf("executed=%d + failed=%d != %d jobs", rep.Executed, rep.Failed, len(jobs))
	}
	if rep.Executed < 2 {
		t.Fatalf("executed=%d, want >= 2 completions before the cancel", rep.Executed)
	}
}

func TestProgressSeesEveryJob(t *testing.T) {
	jobs := testMatrix().Jobs()
	seen := make(map[string]int)
	rep := Run(context.Background(), jobs, fakeRun, Options{
		Workers:  4,
		Progress: func(jr JobResult) { seen[jr.Job.Key()]++ }, // serialized by the engine
	})
	if len(seen) != len(jobs) {
		t.Fatalf("progress saw %d jobs, want %d", len(seen), len(jobs))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("job %s reported %d times", k, n)
		}
	}
	if rep.Executed != len(jobs) {
		t.Fatalf("executed = %d, want %d", rep.Executed, len(jobs))
	}
}

// TestSummaryCounts: the side-band summary carries scheduling detail the
// merged output omits.
func TestSummaryCounts(t *testing.T) {
	m := testMatrix()
	jobs := m.Jobs()
	rep := Run(context.Background(), jobs, fakeRun, Options{Workers: 2})
	s := rep.Summarize(m, 2)
	if s.Jobs != len(jobs) || s.Executed != len(jobs) || s.Cached != 0 || s.Failed != 0 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.Workers != 2 || s.MatrixDigest != m.Digest() {
		t.Fatalf("summary metadata wrong: %+v", s)
	}
	if len(s.PerJob) != len(jobs) {
		t.Fatalf("per-job timings = %d, want %d", len(s.PerJob), len(jobs))
	}
	for i := 1; i < len(s.PerJob); i++ {
		if s.PerJob[i-1].Key >= s.PerJob[i].Key {
			t.Fatal("summary per-job records not in key order")
		}
	}
}

func TestFormatJSONOmitsSchedulingState(t *testing.T) {
	jobs := testMatrix().Jobs()[:2]
	rep := Run(context.Background(), jobs, fakeRun, Options{Workers: 2})
	var buf bytes.Buffer
	if err := rep.FormatJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"wall", "seconds", "attempts", "cached"} {
		if strings.Contains(strings.ToLower(out), banned) {
			t.Fatalf("merged JSON leaks scheduling state %q:\n%s", banned, out)
		}
	}
}

func TestEngineDefaultsWorkers(t *testing.T) {
	// Workers <= 0 must still complete (defaults to NumCPU).
	jobs := testMatrix().Jobs()[:2]
	rep := Run(context.Background(), jobs, fakeRun, Options{})
	if rep.Executed != 2 {
		t.Fatalf("executed = %d, want 2", rep.Executed)
	}
	_ = fmt.Sprintf // keep fmt referenced if assertions change
}
