package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
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

// resubmitCounts reads a sweep's counts from an idempotent resubmission
// of its matrix.
func resubmitCounts(t *testing.T, c *Client, m sweep.Matrix) Counts {
	t.Helper()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	return sub.Counts
}

// TestServerResultsByteIdenticalToLocalRun is the tentpole's core
// acceptance: the server's merged output matches a local `spsweep run`
// byte for byte, for more than one worker count.
func TestServerResultsByteIdenticalToLocalRun(t *testing.T) {
	m := testServerMatrix()
	want := localRunJSON(t, m)

	for _, workers := range []int{1, 3} {
		ex := &countingExec{}
		_, c, stop := startServer(t, t.TempDir(), Options{})
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

	// Life 1: the executor fails every "sp" cell; they go terminally
	// failed while the "dir" cells complete into the store.
	ex1 := &countingExec{failFn: func(j sweep.Job) bool { return j.Kind == "sp" }}
	_, c1, stop1 := startServer(t, dir, Options{})
	sub, err := c1.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c1, "life1", 2, ex1.exec)
	if counts := resubmitCounts(t, c1, m); counts.Done != 2 || counts.Failed != 2 {
		t.Fatalf("life 1 counts: %+v", counts)
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
	srv2, c2, stop2 := startServer(t, dir, Options{})
	defer stop2()
	if _, ok := srv2.sweepByID(sub.SweepID); !ok {
		t.Fatal("re-adopted sweep not registered")
	}
	if counts := resubmitCounts(t, c2, m); counts.Done != 2 || counts.Cached != 2 || counts.Pending != 2 {
		t.Fatalf("life 2 adoption counts: %+v", counts)
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
}

// TestDuplicateCompletionOverHTTP expires a lease with a fake clock: the
// job fails terminally and lands in the failure ledger. The worker's late
// result then makes it done (first write wins), and a second push of the
// same result is a no-op duplicate.
func TestDuplicateCompletionOverHTTP(t *testing.T) {
	m := testServerMatrix()
	clk := newFakeClock()
	dir := t.TempDir()
	srv, c, stop := startServer(t, dir, Options{LeaseTTL: time.Minute, now: clk.now})
	defer stop()
	if _, err := c.Submit(&SubmitRequest{Matrix: m}); err != nil {
		t.Fatal(err)
	}

	g1, _, err := c.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %v", g1, err)
	}
	clk.advance(2 * time.Minute)
	srv.expireLeases() // the ticker isn't running; fire it by hand
	if counts := resubmitCounts(t, c, m); counts.Failed != 1 || counts.Leased != 0 {
		t.Fatalf("counts after expiry: %+v", counts)
	}
	if err := c.Heartbeat(g1.LeaseID); err != ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease over HTTP: %v, want ErrLeaseGone", err)
	}
	ledger := func() map[string]string {
		store, err := sweep.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store.FailedCells()
	}
	if failed := ledger(); len(failed) != 1 || failed[g1.Job.Key()] != "lease expired" {
		t.Fatalf("failure ledger after expiry: %v, want [%s]", failed, g1.Job.Key())
	}
	// The failed job is not handed out again.
	if g2, _, err := c.Lease("w2"); err != nil || g2 == nil || g2.Job.Key() == g1.Job.Key() {
		t.Fatalf("w2 lease: %v err=%v, want another job", g2, err)
	}

	// w1's late push wins: the job is done and leaves the ledger.
	if dup, err := c.Complete(g1.LeaseID, fakeResult(g1.Job)); err != nil || dup {
		t.Fatalf("w1 late complete: dup=%v err=%v", dup, err)
	}
	if counts := resubmitCounts(t, c, m); counts.Done != 1 || counts.Failed != 0 {
		t.Fatalf("counts after the late completion: %+v", counts)
	}
	if failed := ledger(); len(failed) != 0 {
		t.Fatalf("failure ledger after the late completion: %v", failed)
	}
	// A second push of the same result is a no-op duplicate.
	if dup, err := c.Complete(g1.LeaseID, fakeResult(g1.Job)); err != nil || !dup {
		t.Fatalf("second complete: dup=%v err=%v", dup, err)
	}
	if counts := resubmitCounts(t, c, m); counts.Done != 1 {
		t.Fatalf("counts after the duplicate completion: %+v", counts)
	}
}

// TestSubmitRejectsSpecMatrix: the server runs built-in profiles only, so
// a matrix naming a scenario spec is refused with 400 — with or without
// the spec's bytes attached — and never reaches the store's manifest.
func TestSubmitRejectsSpecMatrix(t *testing.T) {
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
	srv, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()

	if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil ||
		!strings.Contains(err.Error(), "built-in profiles only") {
		t.Fatalf("spec matrix submit: %v", err)
	}
	body, err := json.Marshal(map[string]any{
		"matrix": m,
		"specs":  []map[string]any{{"name": spec.Name, "digest": spec.Digest(), "content": json.RawMessage(raw)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRaw(t, c, "/sweeps", "", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec upload: got %d, want 400", resp.StatusCode)
	}
	if ids := srv.store.SweepIDs(); len(ids) != 0 {
		t.Fatalf("refused spec matrix registered in the manifest: %v", ids)
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
	_, c, stop := startServer(t, t.TempDir(), Options{})
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

// TestResultsJSONOnly: the results endpoint serves JSON and answers any
// other format with 400.
func TestResultsJSONOnly(t *testing.T) {
	m := testServerMatrix()
	_, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	ex := &countingExec{}
	drainWorker(t, c, "w", 1, ex.exec)
	for _, format := range []string{"csv", "table", "xml"} {
		var buf bytes.Buffer
		err := c.Results(sub.SweepID, format, &buf)
		if err == nil || !strings.Contains(err.Error(), "json only") {
			t.Fatalf("format %q: %v, want a 400", format, err)
		}
	}
	if !bytes.Equal(serverResultsJSON(t, c, sub.SweepID), localRunJSON(t, m)) {
		t.Fatal("JSON results differ from the local reference run")
	}
}
