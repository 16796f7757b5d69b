package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
	"spcoh/internal/sweepd"
	"spcoh/internal/workload"
)

// Sweep cell configuration: small fast-mode cells with the metrics
// observers on, so host-side orchestration and program builds are a large
// share of each cell.
var (
	sweepScale = 0.05
	sweepEpoch = uint64(10000)
	sweepKinds = []string{"dir", "sp", "bcast"}

	// sweepPoll is the workers' idle lease cadence: short, so a slot that
	// found the queue momentarily empty does not stretch a pass.
	sweepPoll = 10 * time.Millisecond

	// sweepDeadline bounds one pass; a pass that has not drained by then
	// fails the run instead of hanging it.
	sweepDeadline = 150 * time.Second
)

// sweepWorkload runs a matrix through an in-process sweepd.Server over
// loopback HTTP, with RunWorker leasing through a *sweepd.Client. Pass 1
// submits one seed; pass 2 resubmits with a second seed added, so half of
// its cells are recalled from the store while the other half execute.
type sweepWorkload struct {
	workdir string
	slots   int
	m1, m2  sweep.Matrix

	// ref holds the local sweep.Run rendering of each submission, which
	// the served results must repeat byte for byte.
	ref         [2][]byte
	digest      map[string]string // cell key -> digest of its local result
	pinMismatch [2]int            // cells of each submission off their pinned digest
	seriesBytes uint64            // JSON size of the metrics series of every executed cell
}

func newSweepWorkload(workdir string) *sweepWorkload {
	return &sweepWorkload{workdir: workdir, slots: runtime.NumCPU()}
}

func (s *sweepWorkload) prepare(seed int64, pins map[string]string) error {
	s.m1 = sweep.Matrix{
		Benches:      workload.Builtin().Names(),
		Kinds:        sweepKinds,
		Seeds:        []int64{seed},
		Scales:       []float64{sweepScale},
		Threads:      16,
		MetricsEpoch: sweepEpoch,
		Mode:         string(sim.ModeFast),
	}
	s.m2 = s.m1
	s.m2.Seeds = []int64{seed, seed + 1}

	// The local reference: sweep.Run over the second matrix, which holds
	// the first; the first's rendering is its own cells of that report.
	run := func(j sweep.Job) (*sim.Result, error) { return sweepd.DefaultExec(j, nil) }
	rep := sweep.Run(context.Background(), s.m2.Jobs(), run, sweep.Options{Workers: s.slots})
	if rep.Failed > 0 {
		return fmt.Errorf("local reference sweep: %d of %d cells failed", rep.Failed, len(rep.Jobs))
	}
	first := &sweep.Report{}
	for _, jr := range rep.Jobs {
		if jr.Job.Seed == seed {
			first.Jobs = append(first.Jobs, jr)
		}
	}
	s.digest = map[string]string{}
	for i, r := range []*sweep.Report{first, rep} {
		var buf bytes.Buffer
		if err := r.FormatJSON(&buf); err != nil {
			return err
		}
		s.ref[i] = buf.Bytes()
		cells, err := parseMerged(s.ref[i])
		if err != nil {
			return err
		}
		for _, c := range cells {
			d := c.digest()
			s.digest[c.Key] = d
			if pins != nil && pins[c.Key] != d {
				fmt.Fprintf(os.Stderr, "%s: digest %.12s, pinned %.12s\n", c.Key, d, pins[c.Key])
				s.pinMismatch[i]++
			}
		}
	}
	for _, jr := range rep.Jobs {
		b, err := json.Marshal(jr.Result.Metrics)
		if err != nil {
			return err
		}
		s.seriesBytes += uint64(len(b))
	}
	return nil
}

func (s *sweepWorkload) digests() (map[string]string, error) { return s.digest, nil }

// mergedCell is one record of the merged JSON results.
type mergedCell struct {
	Key    string          `json:"key"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func (c mergedCell) digest() string {
	sum := sha256.Sum256(c.Result)
	return hex.EncodeToString(sum[:])
}

func parseMerged(b []byte) ([]mergedCell, error) {
	var cells []mergedCell
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("merged results: %w", err)
	}
	return cells, nil
}

// sweepRecorder collects what the Exec and WorkerAPI wrappers observe.
type sweepRecorder struct {
	mu     sync.Mutex
	ps     *passStats
	idleAt map[string]time.Time // worker -> when its last lease came back empty
}

// exec is the WorkerOptions.Exec wrapper: DefaultExec, timed.
func (r *sweepRecorder) exec(j sweep.Job, spec *scenario.Spec) (*sim.Result, error) {
	start := time.Now()
	res, err := sweepd.DefaultExec(j, spec)
	d := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.ps.addRun(j.Key(), d, uint64(res.Cycles))
		r.ps.layer.addResult(res)
	}
	return res, err
}

// timedAPI wraps the worker's *sweepd.Client, timing each call.
type timedAPI struct {
	api sweepd.WorkerAPI
	rec *sweepRecorder
}

func (t timedAPI) Lease(worker string) (*sweepd.Grant, bool, error) {
	start := time.Now()
	g, drained, err := t.api.Lease(worker)
	end := time.Now()
	r := t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ps.layer.leaseRTT = append(r.ps.layer.leaseRTT, end.Sub(start))
	if at, ok := r.idleAt[worker]; ok {
		r.ps.layer.leaseIdle += start.Sub(at)
		delete(r.idleAt, worker)
	}
	if g == nil && err == nil && !drained {
		r.idleAt[worker] = end
	}
	return g, drained, err
}

func (t timedAPI) Heartbeat(leaseID string) error { return t.api.Heartbeat(leaseID) }

func (t timedAPI) Complete(leaseID string, res *sim.Result) (bool, error) {
	start := time.Now()
	dup, err := t.api.Complete(leaseID, res)
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.ps.layer.completeRTT = append(t.rec.ps.layer.completeRTT, d)
	t.rec.mu.Unlock()
	return dup, err
}

func (t timedAPI) Fail(leaseID, msg string) error {
	t.rec.mu.Lock()
	t.rec.ps.layer.retries++
	t.rec.mu.Unlock()
	return t.api.Fail(leaseID, msg)
}

func (s *sweepWorkload) pass(traced bool) (*passStats, error) {
	start := time.Now()
	ps := &passStats{}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	merged, err := s.serve(ps, start)
	if err != nil {
		return nil, err
	}
	if traced {
		runtime.ReadMemStats(&m1)
		ps.layer.addMem(&m0, &m1)
	}
	for i, b := range merged {
		ps.failed += s.check(i, b)
	}
	ps.wall = time.Since(start)
	ps.layer.seriesBytes = s.seriesBytes
	return ps, nil
}

// serve runs both submissions against a fresh store and server, and
// returns the merged results of each. Everything it starts is stopped and
// removed when it returns.
func (s *sweepWorkload) serve(ps *passStats, start time.Time) (merged [2][]byte, err error) {
	dir, err := os.MkdirTemp(s.workdir, "store-")
	if err != nil {
		return merged, err
	}
	defer os.RemoveAll(dir)
	store, err := sweep.Open(dir)
	if err != nil {
		return merged, err
	}
	srv, err := sweepd.New(sweepd.Options{Store: store})
	if err != nil {
		return merged, err
	}
	srv.Start()
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return merged, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
	defer cancel()
	client := sweepd.NewClient("http://" + ln.Addr().String())
	rec := &sweepRecorder{ps: ps, idleAt: map[string]time.Time{}}
	wopt := sweepd.WorkerOptions{ID: "bench", Slots: s.slots, Poll: sweepPoll, Drain: true, Exec: rec.exec}

	for i, m := range []sweep.Matrix{s.m1, s.m2} {
		t0 := time.Now()
		resp, err := client.Submit(&sweepd.SubmitRequest{Matrix: m})
		if err != nil {
			return merged, fmt.Errorf("submit: %w", err)
		}
		if i == 0 {
			ps.setup = time.Since(start)
		}
		sweepd.RunWorker(ctx, timedAPI{api: client, rec: rec}, wopt)
		var buf bytes.Buffer
		if err := client.Results(resp.SweepID, "json", &buf); err != nil {
			return merged, fmt.Errorf("results: %w", err)
		}
		ps.cellWindow += time.Since(t0)
		ps.cells += resp.Counts.Jobs
		// Cells already complete at submission are served from the store.
		ps.layer.cached, ps.layer.jobs = resp.Counts.Done, resp.Counts.Jobs
		merged[i] = buf.Bytes()
	}
	ps.layer.artifactBytes, err = dirBytes(dir)
	return merged, err
}

// check counts the failed cells of submission i's merged results: all
// cells off their pin when the bytes equal the local rendering, else each
// cell that errored or whose result differs from the local one.
func (s *sweepWorkload) check(i int, b []byte) int {
	if bytes.Equal(b, s.ref[i]) {
		return s.pinMismatch[i]
	}
	fmt.Fprintf(os.Stderr, "submission %d: merged results differ from the local sweep.Run rendering\n", i+1)
	cells, err := parseMerged(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return len([]sweep.Matrix{s.m1, s.m2}[i].Jobs())
	}
	failed := 0
	for _, c := range cells {
		if d := c.digest(); c.Error != "" || d != s.digest[c.Key] {
			fmt.Fprintf(os.Stderr, "%s: served digest %.12s, local %.12s %s\n", c.Key, d, s.digest[c.Key], c.Error)
			failed++
		}
	}
	return max(failed, 1)
}

// timeBuilds times building every executed cell's program, as the
// workers do inside each cell.
func (s *sweepWorkload) timeBuilds() (time.Duration, uint64, error) {
	var total time.Duration
	var ops uint64
	for _, j := range s.m2.Jobs() {
		p, ok := workload.Builtin().Lookup(j.Bench)
		if !ok {
			return 0, 0, fmt.Errorf("unknown profile %q", j.Bench)
		}
		start := time.Now()
		prog, err := p.Program(j.Threads, j.Scale, j.Seed)
		total += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		ops += uint64(prog.TotalOps())
	}
	return total, ops, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}
