// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-time budget, checks every simulated
// output, and prints one JSON record as the last line of its standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with --trace 1 the run is profiled and the metrics are the per-layer
// ones. Build and run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// passStats is what one pass over a workload measured.
type passStats struct {
	setup time.Duration // until the first simulated event can run
	wall  time.Duration // the whole pass, setup and checks included

	runs    map[string]cellRun // each executed cell, by key
	simHost time.Duration      // Σ host time of the runs
	cycles  uint64             // Σ simulated cycles of the runs

	cells      int           // matrix cells completed
	cellWindow time.Duration // the host time cells_per_s divides by
	serial     bool          // cells ran one after another: wall = setup + simHost + checks

	failed int // cells that errored or mismatched

	peakMem uint64 // peak bytes the runtime held from the OS

	layer layerStats
}

// cellRun is one execution of a cell: host time inside sim.Run (for the
// sweep, inside Exec) and the simulated cycles it produced.
type cellRun struct {
	host   time.Duration
	cycles uint64
}

func (p *passStats) addRun(key string, host time.Duration, cycles uint64) {
	if p.runs == nil {
		p.runs = map[string]cellRun{}
	}
	p.runs[key] = cellRun{host, cycles}
	p.simHost += host
	p.cycles += cycles
}

// bench is one workload: a named set of inputs and how to run it.
type bench interface {
	// prepare runs once per process, untimed, before the first pass: it
	// computes the reference outputs passes are checked against.
	prepare(seed int64, pins map[string]string) error
	// pass runs the workload once; traced passes collect per-layer counts.
	pass(traced bool) (*passStats, error)
	// digests returns the digest of every cell's simulated statistics.
	digests() (map[string]string, error)
}

// workloads maps the names BENCHMARK.json lists to their constructors.
var workloads = map[string]func(workdir string) bench{
	"suite-dir-sp": func(string) bench {
		return newSuite(16, suiteScale, []string{"dir", "sp"}, 0, nil)
	},
	"suite-bcast": func(string) bench {
		return newSuite(16, suiteScale, []string{"bcast"}, 0, nil)
	},
	"mesh16-sharded": func(string) bench {
		return newSuite(256, meshScale, []string{"dir"}, runtime.NumCPU(), meshProfiles)
	},
	"sweep-fast-server": func(dir string) bench { return newSweepWorkload(dir) },
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = profile the run and report per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for sweep stores and profiles")
	commit := flag.String("commit", "unknown", "source revision, recorded in the output")
	writePins := flag.Bool("write-digests", false, "record the cell digests of this seed into digests.json")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1, *workdir, *commit, *writePins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, workdir, commit string, writePins bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	if writePins && seed != pinSeed {
		return fmt.Errorf("digests are pinned for seed %d only", pinSeed)
	}
	var pins map[string]string
	if !writePins {
		var err error
		if pins, err = loadPins(name, seed); err != nil {
			return err
		}
	}
	w := mk(workdir)
	if err := w.prepare(seed, pins); err != nil {
		return fmt.Errorf("%s: prepare: %w", name, err)
	}
	if writePins {
		d, err := w.digests()
		if err != nil {
			return err
		}
		return savePins(name, d)
	}

	budget := time.Duration(seconds * float64(time.Second))
	var rec *record
	var err error
	if traced {
		rec, err = runTraced(name, w, budget, workdir)
	} else {
		var passes []*passStats
		passes, err = runPasses(w, budget, false)
		rec = endToEnd(passes)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	printContext(name, seed, seconds, traced, commit, rec)
	return rec.print()
}

// minPasses keeps the per-pass statistics meaningful when a pass
// outlasts the budget.
const minPasses = 3

// runPasses repeats the workload until the budget is spent, stopping at
// the pass boundary nearest to it, so a run lasts its budget whatever the
// length of a pass. Every pass starts from a collected heap whose free
// memory went back to the operating system, so passes see the same
// garbage-collector schedule and the peak memory recorded for each is its
// own.
func runPasses(w bench, budget time.Duration, traced bool) ([]*passStats, error) {
	mem := startMemSampler()
	defer mem.close()
	var passes []*passStats
	start := time.Now()
	halfPass := func() time.Duration { return time.Duration(median(passes, wallOf) * float64(time.Second) / 2) }
	for len(passes) < minPasses || time.Since(start)+halfPass() < budget {
		debug.FreeOSMemory()
		mem.reset()
		p, err := w.pass(traced)
		if err != nil {
			return nil, err
		}
		p.peakMem = mem.reset()
		fmt.Fprintf(os.Stderr, "pass %d: setup %.3fs wall %.3fs sim %.3fs cycles %d cells %d failed %d mem %.1fMB\n",
			len(passes)+1, p.setup.Seconds(), p.wall.Seconds(), p.simHost.Seconds(), p.cycles, p.cells, p.failed,
			float64(p.peakMem)/(1<<20))
		passes = append(passes, p)
	}
	return passes, nil
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// operating system (mapped and not released: its resident set, less the
// binary), sampled every few milliseconds.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			held := s[0].Value.Uint64() - s[1].Value.Uint64()
			for old := m.peak.Load(); held > old && !m.peak.CompareAndSwap(old, held); old = m.peak.Load() {
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// reset returns the peak since the last reset and starts a new one.
func (m *memSampler) reset() uint64 { return m.peak.Swap(0) }

func (m *memSampler) close() {
	close(m.stop)
	m.done.Wait()
}

// metric is one named measurement of the output record.
type metric struct {
	name  string
	value float64
	unit  string
}

// record is a run's result: failures over attempts plus its metrics.
type record struct {
	attempted, failed int
	metrics           []metric
	passes            int
}

func (r *record) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// tally counts the cells of every pass as attempts.
func (r *record) tally(passes []*passStats) {
	for _, p := range passes {
		r.attempted += p.cells
		r.failed += p.failed
	}
	r.passes += len(passes)
}

// endToEnd reduces untraced passes to the end-to-end metrics. Other load
// on a shared host only ever slows work down, and it comes in bursts of
// seconds, so the speed metrics take the fastest pass; where cells run one
// after another, the fastest pass is composed of the fastest run of each
// cell and of the set-up and checks around them. Set-up time and memory
// take the median.
func endToEnd(passes []*passStats) *record {
	r := &record{}
	r.tally(passes)
	r.add("sim_cycles_per_s", bestCycleRate(passes), "1/s")
	wall := least(passes, wallOf)
	window := least(passes, func(p *passStats) float64 { return p.cellWindow.Seconds() })
	if passes[0].serial {
		wall = bestSerialWall(passes)
		window = wall
	}
	r.add("cells_per_s", ratio(float64(passes[0].cells), window), "1/s")
	r.add("wall_s", wall, "s")
	r.add("setup_s", median(passes, func(p *passStats) float64 { return p.setup.Seconds() }), "s")
	r.add("peak_rss_mb", median(passes, func(p *passStats) float64 { return float64(p.peakMem) / (1 << 20) }), "MB")
	return r
}

// print writes the human-readable lines and, last, the JSON record.
func (r *record) print() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Printf("%-28s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Printf("%-28s %16.6g %s\n", "failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac")
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printContext records the host and run context beside the metrics.
func printContext(name string, seed int64, seconds float64, traced bool, commit string, r *record) {
	ctx := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"passes":     r.passes,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"l2":         "cold: every cell builds a fresh system",
	}
	b, _ := json.Marshal(ctx) // a map of scalars always encodes
	fmt.Printf("context %s\n", b)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bestCycleRate is Σ simulated cycles ÷ Σ host time over the cells, each
// cell taking its fastest run of the passes.
func bestCycleRate(passes []*passStats) float64 {
	cycles, host := bestRuns(passes)
	return ratio(float64(cycles), host.Seconds())
}

// bestRuns sums the simulated cycles and the host time of each cell's
// fastest run over the passes.
func bestRuns(passes []*passStats) (uint64, time.Duration) {
	best := map[string]cellRun{}
	for _, p := range passes {
		for k, c := range p.runs {
			if b, ok := best[k]; !ok || c.host < b.host {
				best[k] = c
			}
		}
	}
	var cycles uint64
	var host time.Duration
	for _, c := range best {
		cycles += c.cycles
		host += c.host
	}
	return cycles, host
}

// bestSerialWall is the fastest pass of a workload whose cells run one
// after another: the fastest set-up, plus each cell's fastest run, plus the
// fastest of what the passes spent around the cells (checks, digests).
func bestSerialWall(passes []*passStats) float64 {
	_, host := bestRuns(passes)
	setup := least(passes, func(p *passStats) float64 { return p.setup.Seconds() })
	rest := least(passes, func(p *passStats) float64 { return (p.wall - p.setup - p.simHost).Seconds() })
	return setup + host.Seconds() + rest
}

// least is the least value of f over the passes.
func least(passes []*passStats, f func(*passStats) float64) float64 {
	v := f(passes[0])
	for _, p := range passes[1:] {
		v = min(v, f(p))
	}
	return v
}

func wallOf(p *passStats) float64 { return p.wall.Seconds() }

func median(passes []*passStats, f func(*passStats) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return quantile(v, 0.5)
}

// quantile interpolates the q-quantile of v (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// pinSeed is the seed whose cell digests digests.json pins.
const pinSeed = 42

const pinFile = "perfbench/digests.json"

// loadPins returns the pinned cell digests of a workload, or nil when the
// seed has none.
func loadPins(name string, seed int64) (map[string]string, error) {
	if seed != pinSeed {
		return nil, nil
	}
	all, err := readPinFile()
	if err != nil {
		return nil, err
	}
	return all[name], nil
}

func readPinFile() (map[string]map[string]string, error) {
	all := map[string]map[string]string{}
	b, err := os.ReadFile(pinFile)
	if errors.Is(err, os.ErrNotExist) {
		return all, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", pinFile, err)
	}
	return all, nil
}

func savePins(name string, d map[string]string) error {
	all, err := readPinFile()
	if err != nil {
		return err
	}
	all[name] = d
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinFile, append(b, '\n'), 0o644)
}
