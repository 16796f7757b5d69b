package sweepd

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spcoh/internal/event"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// fakeResult builds a deterministic synthetic result from the job spec —
// the same cell computes the same bytes wherever and whenever it runs,
// which is the property the whole server leans on.
func fakeResult(j sweep.Job) *sim.Result {
	r := &sim.Result{Benchmark: j.Bench, Predictor: j.Kind}
	r.Cycles = event.Time(1000 + 13*int64(len(j.Bench)) + 7*j.Seed)
	r.Nodes.Misses = uint64(100 + len(j.Kind))
	r.Nodes.Communicating = 40
	r.Nodes.NonCommunicating = r.Nodes.Misses - 40
	r.Net.Bytes = uint64(4096 * (j.Seed + 1))
	return r
}

// countingExec is a stub ExecFunc that counts executions per job key.
type countingExec struct {
	runs   atomic.Int64
	failFn func(j sweep.Job) bool // nil = never fail
}

func (c *countingExec) exec(j sweep.Job, spec *scenario.Spec) (*sim.Result, error) {
	c.runs.Add(1)
	if c.failFn != nil && c.failFn(j) {
		return nil, errInjected
	}
	return fakeResult(j), nil
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

func testServerMatrix() sweep.Matrix {
	return sweep.Matrix{
		Benches: []string{"x264", "streamcluster"},
		Kinds:   []string{"dir", "sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

// startServer builds a Server over dir and exposes it via httptest.
func startServer(t *testing.T, dir string, opt Options) (*Server, *Client, func()) {
	t.Helper()
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt.Store = store
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, NewClient(hs.URL), func() { hs.Close(); srv.Close() }
}

// drainWorker runs one remote worker until the server reports drained.
func drainWorker(t *testing.T, c *Client, id string, slots int, exec ExecFunc) {
	t.Helper()
	RunWorker(context.Background(), c, WorkerOptions{
		ID:    id,
		Slots: slots,
		Poll:  5 * time.Millisecond,
		Drain: true,
		Exec:  exec,
	})
}

// localRunJSON renders the matrix through the local engine with the same
// result function, the reference bytes for every server comparison.
func localRunJSON(t *testing.T, m sweep.Matrix) []byte {
	t.Helper()
	run := func(j sweep.Job) (*sim.Result, error) { return fakeResult(j), nil }
	rep := sweep.Run(context.Background(), m.Jobs(), run, sweep.Options{Workers: 1})
	if rep.Failed != 0 {
		t.Fatalf("local reference run failed: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.FormatJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func serverResultsJSON(t *testing.T, c *Client, sweepID string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Results(sweepID, "json", &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerResultsByteIdenticalToLocalRun is the tentpole's core
// acceptance: the server's merged output matches a local `spsweep run`
// byte for byte, for more than one worker count.
func TestServerResultsByteIdenticalToLocalRun(t *testing.T) {
	m := testServerMatrix()
	want := localRunJSON(t, m)

	for _, workers := range []int{1, 3} {
		ex := &countingExec{}
		_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
		sub, err := c.Submit(&SubmitRequest{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		if sub.Counts.Jobs != len(m.Jobs()) || sub.Counts.Pending != sub.Counts.Jobs {
			t.Fatalf("workers=%d: submit counts %+v", workers, sub.Counts)
		}
		drainWorker(t, c, "w", workers, ex.exec)
		got := serverResultsJSON(t, c, sub.SweepID)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: server results differ from local run\nserver:\n%s\nlocal:\n%s", workers, got, want)
		}
		if n := ex.runs.Load(); n != int64(len(m.Jobs())) {
			t.Fatalf("workers=%d: %d executions for %d jobs", workers, n, len(m.Jobs()))
		}
		stop()
	}
}

// TestServerRestartResumesFromStore kills the server mid-sweep (some
// cells done, some failed) and verifies the next life recomputes only
// the unfinished cells and still produces the local-run bytes.
func TestServerRestartResumesFromStore(t *testing.T) {
	m := testServerMatrix()
	dir := t.TempDir()
	jobs := m.Jobs()

	// Life 1: the executor fails every "sp" cell; with Retries=0 they go
	// terminally failed while the "dir" cells complete into the store.
	ex1 := &countingExec{failFn: func(j sweep.Job) bool { return j.Kind == "sp" }}
	_, c1, stop1 := startServer(t, dir, Options{Exec: ex1.exec, Retries: 0})
	sub, err := c1.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c1, "life1", 2, ex1.exec)
	st, err := c1.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts.Done != 2 || st.Counts.Failed != 2 {
		t.Fatalf("life 1 counts: %+v", st.Counts)
	}
	stop1() // crash: in-memory lease table and sweep registry are gone

	// The store's manifest carries the sweep and the failure ledger.
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := store.SweepIDs(); len(ids) != 1 || ids[0] != sub.SweepID {
		t.Fatalf("sweep not persisted in the manifest: %v", ids)
	}
	if failed := store.FailedCells(); len(failed) != 2 {
		t.Fatalf("failure ledger after life 1: %v", failed)
	}

	// Life 2: a fresh server over the same store re-adopts the sweep with
	// zero resubmission; the healthy executor finishes only what's left.
	ex2 := &countingExec{}
	_, c2, stop2 := startServer(t, dir, Options{Exec: ex2.exec})
	defer stop2()
	st, err = c2.Status(sub.SweepID)
	if err != nil {
		t.Fatalf("re-adopted sweep not visible: %v", err)
	}
	if st.Counts.Done != 2 || st.Counts.Cached != 2 || st.Counts.Pending != 2 {
		t.Fatalf("life 2 adoption counts: %+v", st.Counts)
	}
	drainWorker(t, c2, "life2", 2, ex2.exec)

	// Zero recomputation of the cells life 1 completed.
	if n := ex2.runs.Load(); n != 2 {
		t.Fatalf("life 2 executed %d cells, want exactly the 2 unfinished ones", n)
	}
	got := serverResultsJSON(t, c2, sub.SweepID)
	want := localRunJSON(t, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart results differ from local run\nserver:\n%s\nlocal:\n%s", got, want)
	}
	// Success clears the failure ledger.
	store2, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if failed := store2.FailedCells(); len(failed) != 0 {
		t.Fatalf("failure ledger not cleared by completion: %v", failed)
	}
	_ = jobs
}

// TestDuplicateCompletionOverHTTP expires a lease with a fake clock,
// lets a second worker complete the job, then delivers the first
// worker's late result: first write wins, the second is a no-op, and the
// result bytes are untouched.
func TestDuplicateCompletionOverHTTP(t *testing.T) {
	m := testServerMatrix()
	clk := newFakeClock()
	ex := &countingExec{}
	srv, c, stop := startServer(t, t.TempDir(), Options{
		Exec: ex.exec, LeaseTTL: time.Minute, Retries: 2, now: clk.now,
	})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}

	g1, _, err := c.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %v", g1, err)
	}
	clk.advance(2 * time.Minute)
	srv.q.expire()               // the ticker isn't running; fire it by hand
	clk.advance(5 * time.Second) // pass the requeue backoff gate
	g2, _, err := c.Lease("w2")
	if err != nil || g2 == nil || g2.Job.Key() != g1.Job.Key() {
		t.Fatalf("w2 should re-lease %s: got %v err=%v", g1.Job.Key(), g2, err)
	}
	if err := c.Heartbeat(g1.LeaseID); err != ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease over HTTP: %v, want ErrLeaseGone", err)
	}

	res := fakeResult(g2.Job)
	if dup, err := c.Complete(g2.LeaseID, res); err != nil || dup {
		t.Fatalf("w2 complete: dup=%v err=%v", dup, err)
	}
	// w1's late push: same deterministic bytes, flagged duplicate, no-op.
	if dup, err := c.Complete(g1.LeaseID, fakeResult(g1.Job)); err != nil || !dup {
		t.Fatalf("w1 late complete: dup=%v err=%v", dup, err)
	}
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range st.Jobs {
		if js.Key == g1.Job.Key() && js.State != "done" {
			t.Fatalf("job state after duplicate completion: %+v", js)
		}
	}
}

// TestSpecSweepOverServer pushes a scenario-spec matrix through the HTTP
// path: the spec travels in the submit, is digest-verified server-side,
// re-homed into the store, and re-verified by the worker before running.
func TestSpecSweepOverServer(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "workload", "specs", "03-ocean.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := sweep.Matrix{
		Specs:   []sweep.SpecRef{{Name: spec.Name, Path: "client-local.json", Digest: spec.Digest()}},
		Kinds:   []string{"sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.25},
		Threads: 16,
	}

	var sawSpec atomic.Int64
	exec := func(j sweep.Job, sp *scenario.Spec) (*sim.Result, error) {
		if sp == nil || sp.Digest() != j.SpecDigest {
			t.Errorf("worker got spec %v for job wanting %.12s", sp, j.SpecDigest)
		}
		sawSpec.Add(1)
		return fakeResult(j), nil
	}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: exec})
	defer stop()

	// Submitting without the spec upload is rejected.
	if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil ||
		!strings.Contains(err.Error(), "not uploaded") {
		t.Fatalf("submit without spec upload: %v", err)
	}
	// Submitting with content that does not hash to the claimed digest is
	// rejected.
	tampered := bytes.Replace(raw, []byte(`"version"`), []byte(`"version" `), 1)
	if _, err := c.Submit(&SubmitRequest{
		Matrix: m,
		Specs:  []SpecUpload{{Name: spec.Name, Digest: "0000000000000000", Content: tampered}},
	}); err == nil {
		t.Fatal("digest-mismatched spec upload accepted")
	}

	sub, err := c.Submit(&SubmitRequest{
		Matrix: m,
		Specs:  []SpecUpload{{Name: spec.Name, Digest: spec.Digest(), Content: raw}},
	})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c, "w", 1, exec)
	if sawSpec.Load() != 1 {
		t.Fatalf("spec cell executed %d times, want 1", sawSpec.Load())
	}
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Counts.Terminal() || st.Counts.Failed != 0 {
		t.Fatalf("spec sweep counts: %+v", st.Counts)
	}
}

// TestEventsStreamReplaysAndCompletes checks the NDJSON stream: a
// subscriber arriving after the sweep finished still sees every job
// event and the final complete event.
func TestEventsStreamReplaysAndCompletes(t *testing.T) {
	m := testServerMatrix()
	ex := &countingExec{}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c, "w", 2, ex.exec)

	var jobEvents int
	var final *Counts
	err = c.StreamEvents(sub.SweepID, func(ev Event) bool {
		switch ev.Type {
		case "job":
			jobEvents++
			if ev.Job == nil || ev.Job.State != "done" {
				t.Errorf("bad job event: %+v", ev)
			}
		case "complete":
			final = ev.Counts
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobEvents != len(m.Jobs()) || final == nil || final.Done != len(m.Jobs()) {
		t.Fatalf("stream: %d job events, final=%+v", jobEvents, final)
	}
}

// TestSubmitValidation rejects matrices no worker could run.
func TestSubmitValidation(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()
	base := testServerMatrix()

	cases := []struct {
		name string
		mut  func(m *sweep.Matrix)
	}{
		{"unknown bench", func(m *sweep.Matrix) { m.Benches = []string{"nosuch"} }},
		{"unknown kind", func(m *sweep.Matrix) { m.Kinds = []string{"nosuch"} }},
		{"no kinds", func(m *sweep.Matrix) { m.Kinds = nil }},
		{"no seeds", func(m *sweep.Matrix) { m.Seeds = nil }},
		{"bad scale", func(m *sweep.Matrix) { m.Scales = []float64{-1} }},
		{"bad threads", func(m *sweep.Matrix) { m.Threads = 0 }},
		{"non-square threads", func(m *sweep.Matrix) { m.Threads = 12 }},
		{"threads past the largest mesh", func(m *sweep.Matrix) { m.Threads = 1024 }},
		{"empty", func(m *sweep.Matrix) { m.Benches = nil }},
	}
	for _, tc := range cases {
		m := base
		tc.mut(&m)
		if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Resubmitting the same valid matrix is idempotent.
	a, err := c.Submit(&SubmitRequest{Matrix: base})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(&SubmitRequest{Matrix: base})
	if err != nil {
		t.Fatal(err)
	}
	if a.SweepID != b.SweepID || b.Counts.Jobs != a.Counts.Jobs {
		t.Fatalf("resubmit not idempotent: %+v vs %+v", a, b)
	}
}

// TestResultsBeforeTerminalConflicts: the merge endpoint refuses to
// render a sweep that could still change.
func TestResultsBeforeTerminalConflicts(t *testing.T) {
	m := testServerMatrix()
	ex := &countingExec{}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Results(sub.SweepID, "json", &buf); err == nil ||
		!strings.Contains(err.Error(), "not finished") {
		t.Fatalf("results on a pending sweep: %v", err)
	}
}
