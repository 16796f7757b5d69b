package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"spcoh/internal/arch"
	"spcoh/internal/detutil"
	"spcoh/internal/predictor"
	"spcoh/internal/sim"
)

// layerStats are the per-layer counts of one pass. Counts that come from
// simulated results repeat exactly under a fixed seed.
type layerStats struct {
	events, packets, netBytes, stalls uint64
	misses, comm, lookups             uint64
	predCorrect, predComm             uint64 // SP cells' prediction verdicts

	predCalls uint64
	predBusy  time.Duration

	mallocs, allocBytes, gcs uint64

	ops   uint64
	build time.Duration

	seriesBytes, artifactBytes uint64
	cached, jobs               int
	leaseRTT, completeRTT      []time.Duration
	leaseIdle                  time.Duration
	retries                    int
}

func (l *layerStats) addResult(res *sim.Result) {
	l.events += res.Events
	l.packets += res.Net.Packets
	l.netBytes += res.Net.Bytes
	l.stalls += res.Net.StallCycles
	switch res.Protocol {
	case sim.Directory:
		l.misses += res.Nodes.Misses
		l.comm += res.Nodes.Communicating
		if res.Nodes.Predicted > 0 {
			l.predCorrect += res.Nodes.PredCorrect
			l.predComm += res.Nodes.Communicating
		}
	case sim.Broadcast:
		l.lookups += res.Snoop.SnoopLookups
	}
}

func (l *layerStats) addMem(m0, m1 *runtime.MemStats) {
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.gcs += uint64(m1.NumGC - m0.NumGC)
}

func (l *layerStats) addPredictors(timed []*timedPredictor) {
	for _, t := range timed {
		l.predCalls += t.calls
		l.predBusy += t.busy
	}
}

// Predict implements predictor.Predictor.
func (t *timedPredictor) Predict(m predictor.Miss) (arch.SharerSet, predictor.Tag) {
	start := time.Now()
	s, tag := t.Predictor.Predict(m)
	t.busy += time.Since(start)
	t.calls++
	return s, tag
}

// Train implements predictor.Predictor.
func (t *timedPredictor) Train(m predictor.Miss, o predictor.Outcome) {
	start := time.Now()
	t.Predictor.Train(m, o)
	t.busy += time.Since(start)
	t.calls++
}

// OnSync implements predictor.Predictor.
func (t *timedPredictor) OnSync(e predictor.SyncEvent) {
	start := time.Now()
	t.Predictor.OnSync(e)
	t.busy += time.Since(start)
	t.calls++
}

// serialTimer is implemented by workloads that can run on the serial
// engine for comparison with their sharded passes; a nil pass means the
// workload runs on the serial engine already.
type serialTimer interface {
	serialPass() (*passStats, error)
}

// buildTimer is implemented by workloads whose program builds happen
// inside cell execution, where a pass cannot time them apart.
type buildTimer interface {
	timeBuilds() (time.Duration, uint64, error)
}

// runTraced spends half the budget on untraced passes, the reference for
// the tracing overhead, and half on traced passes under the CPU profiler.
func runTraced(name string, w bench, budget time.Duration, workdir string) (*record, error) {
	plain, err := runPasses(w, budget/2, false)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(workdir, fmt.Sprintf("%s-%d.pprof", name, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	traced, err := runPasses(w, budget-budget/2, true)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	frac, covered, err := profileLayers(path)
	if err != nil {
		return nil, err
	}

	speedup := 1.0
	if st, ok := w.(serialTimer); ok {
		ser, err := st.serialPass()
		if err != nil {
			return nil, err
		}
		if ser != nil {
			speedup = ratio(ser.simHost.Seconds(), median(plain, func(p *passStats) float64 { return p.simHost.Seconds() }))
		}
	}
	last := traced[len(traced)-1].layer
	build := median(traced, func(p *passStats) float64 { return p.layer.build.Seconds() })
	ops := last.ops
	if bt, ok := w.(buildTimer); ok {
		d, n, err := bt.timeBuilds()
		if err != nil {
			return nil, err
		}
		build, ops = d.Seconds(), n
	}
	perEvent := func(f func(*passStats) float64) float64 {
		return median(traced, func(p *passStats) float64 { return ratio(f(p), float64(p.layer.events)) })
	}
	var cellExec, leaseRTT, completeRTT []float64
	retries := 0
	for _, p := range traced {
		for _, k := range detutil.SortedKeys(p.runs) {
			cellExec = append(cellExec, p.runs[k].host.Seconds())
		}
		leaseRTT = appendSeconds(leaseRTT, p.layer.leaseRTT)
		completeRTT = appendSeconds(completeRTT, p.layer.completeRTT)
		retries += p.layer.retries
	}

	r := &record{}
	r.tally(plain)
	r.tally(traced)
	r.add("event.cpu_frac", frac["event"], "frac")
	r.add("event.ns_per_event", perEvent(func(p *passStats) float64 { return float64(p.simHost.Nanoseconds()) }), "ns")
	r.add("event.events", float64(last.events), "count")
	r.add("exec.speedup_vs_serial", speedup, "x")
	r.add("noc.cpu_frac", frac["noc"], "frac")
	r.add("noc.packets", float64(last.packets), "count")
	r.add("noc.bytes", float64(last.netBytes), "B")
	r.add("noc.stall_cycles", float64(last.stalls), "cycles")
	r.add("protocol.cpu_frac", frac["protocol"], "frac")
	r.add("protocol.misses", float64(last.misses), "count")
	r.add("protocol.comm_frac", ratio(float64(last.comm), float64(last.misses)), "frac")
	r.add("snoop.cpu_frac", frac["snoop"], "frac")
	r.add("snoop.lookups", float64(last.lookups), "count")
	r.add("cache.cpu_frac", frac["cache"], "frac")
	r.add("predictor.cpu_frac", frac["predictor"], "frac")
	r.add("predictor.calls", float64(last.predCalls), "count")
	r.add("predictor.ns_per_call", median(traced, func(p *passStats) float64 {
		return ratio(float64(p.layer.predBusy.Nanoseconds()), float64(p.layer.predCalls))
	}), "ns")
	r.add("predictor.accuracy", ratio(float64(last.predCorrect), float64(last.predComm)), "frac")
	r.add("cpu.cpu_frac", frac["cpu"], "frac")
	r.add("runtime.cpu_frac", frac["runtime"], "frac")
	r.add("runtime.allocs_per_event", perEvent(func(p *passStats) float64 { return float64(p.layer.mallocs) }), "count")
	r.add("runtime.alloc_bytes_per_event", perEvent(func(p *passStats) float64 { return float64(p.layer.allocBytes) }), "B")
	r.add("runtime.gc_cycles", median(traced, func(p *passStats) float64 { return float64(p.layer.gcs) }), "count")
	r.add("workload.build_s", build, "s")
	r.add("workload.ops", float64(ops), "count")
	r.add("metrics.cpu_frac", frac["metrics"], "frac")
	r.add("metrics.series_bytes", float64(last.seriesBytes), "B")
	r.add("sweep.cpu_frac", frac["sweep"], "frac")
	r.add("sweep.artifact_bytes", float64(last.artifactBytes), "B")
	r.add("sweep.cached_frac", ratio(float64(last.cached), float64(last.jobs)), "frac")
	leaseTail, leaseP := tail(leaseRTT)
	completeTail, completeP := tail(completeRTT)
	r.add("sweepd.lease_rtt_ms", 1e3*quantile(leaseRTT, 0.5), "ms")
	r.add("sweepd.lease_rtt_tail_ms", 1e3*leaseTail, "ms")
	r.add("sweepd.complete_rtt_ms", 1e3*quantile(completeRTT, 0.5), "ms")
	r.add("sweepd.complete_rtt_tail_ms", 1e3*completeTail, "ms")
	r.add("sweepd.lease_idle_s", median(traced, func(p *passStats) float64 { return p.layer.leaseIdle.Seconds() }), "s")
	r.add("sweepd.retries", float64(retries), "count")
	r.add("cell.exec_s", quantile(cellExec, 0.5), "s")
	r.add("trace.covered_frac", covered, "frac")
	r.add("trace.overhead_s", median(traced, wallOf)-median(plain, wallOf), "s")

	fmt.Printf("# tails: lease p%g of %d samples, complete p%g of %d samples; uncovered CPU: %s\n",
		100*leaseP, len(leaseRTT), 100*completeP, len(completeRTT), uncovered(frac))
	return r, nil
}

func appendSeconds(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, d.Seconds())
	}
	return dst
}

// tail returns the highest listed percentile with at least ten samples
// beyond it, and that percentile.
func tail(v []float64) (float64, float64) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if float64(len(v))*(1-p) >= 10 {
			return quantile(v, p), p
		}
	}
	return quantile(v, 0.5), 0.5
}

// layerPackages assigns the packages of the profile's functions to layers.
// Anything else is reported as uncovered: the remaining simulator
// packages, the benchmark's own code, and samples whose whole stack is in
// the standard library.
var layerPackages = []struct {
	layer string
	pkgs  []string
}{
	{"event", []string{"spcoh/internal/event"}},
	{"noc", []string{"spcoh/internal/noc"}},
	{"protocol", []string{"spcoh/internal/protocol"}},
	{"snoop", []string{"spcoh/internal/snoop"}},
	{"cache", []string{"spcoh/internal/cache", "spcoh/internal/arch"}},
	{"predictor", []string{"spcoh/internal/core", "spcoh/internal/predictor"}},
	{"cpu", []string{"spcoh/internal/cpu"}},
	{"runtime", []string{"runtime", "internal/runtime", "internal/bytealg", "internal/abi", "sync", "internal/sync", "aeshashbody"}},
	{"workload", []string{"spcoh/internal/workload", "spcoh/internal/scenario"}},
	{"metrics", []string{"spcoh/internal/metrics"}},
	{"sweep", []string{"spcoh/internal/sweep", "spcoh/internal/sweepd", "spcoh/internal/experiments", "spcoh/internal/runcfg"}},
}

// stdlibFrames matches the standard-library functions other than the
// runtime's. pprof -hide drops them from every stack, which charges their
// time to the nearest caller outside them (JSON encoding called from
// sweep.(*Store).Put counts as sweep). Goroutine roots go too, so a
// sample wholly inside the standard library (an HTTP connection's read
// loop) is charged to no layer.
const stdlibFrames = `^(encoding|net|crypto|syscall|io|bufio|bytes|strings|strconv|os|fmt|reflect|` +
	`unicode|sort|slices|maps|hash|math|path|time|context|errors|mime|compress|vendor|log|regexp|` +
	`text|container|unique|iter|internal/(poll|syscall|fmtsort|godebug|reflectlite|itoa|byteorder|` +
	`filepathlite|stringslite|testlog|oserror|singleflight|nettrace|bisect))[./]|^runtime\.goexit$`

// layerOf maps a package path to its layer, or to "spcoh", "bench" or
// "stdlib" when no layer claims it.
func layerOf(pkg string) string {
	for _, l := range layerPackages {
		for _, p := range l.pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return l.layer
			}
		}
	}
	switch {
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "spcoh/"):
		return "spcoh"
	}
	return "stdlib"
}

// packageOf extracts the package path from a profiled function name such
// as "spcoh/internal/noc.(*Network).Send" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var profileTotal = regexp.MustCompile(`of ([0-9.]+)ms total`)

// profileLayers buckets a CPU profile's flat samples by layer through the
// toolchain's pprof, returning each bucket's share of all samples and the
// share the layers cover.
func profileLayers(path string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-edgefraction=0", "-unit=ms", "-hide="+stdlibFrames, path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	ms := map[string]float64{}
	var total float64
	for _, line := range strings.Split(string(out), "\n") {
		if m := profileTotal.FindStringSubmatch(line); m != nil {
			total, _ = strconv.ParseFloat(m[1], 64) // the pattern admits only numbers
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		ms[layerOf(packageOf(strings.Join(f[5:], " ")))] += v
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	frac := map[string]float64{}
	for layer, v := range ms {
		frac[layer] = v / total
	}
	covered := 0.0
	for _, l := range layerPackages {
		covered += frac[l.layer]
	}
	return frac, covered, nil
}

// uncovered lists the shares no layer claims.
func uncovered(frac map[string]float64) string {
	return fmt.Sprintf("other simulator packages %.3f, benchmark %.3f, unattributed %.3f",
		frac["spcoh"], frac["bench"], 1-sum(frac))
}

func sum(frac map[string]float64) float64 {
	t := 0.0
	for _, k := range detutil.SortedKeys(frac) {
		t += frac[k]
	}
	return t
}
