// Command spstat renders the run-time metrics time-series produced by the
// simulator's observability layer (internal/metrics, enabled with spsim
// -metrics-epoch or spsweep -metrics-epoch).
//
// Usage:
//
//	spstat [-format table|csv|json] series.json     # render a series
//	spstat -validate series.json                    # structural check only
//	spstat -bench [-bench-out results/BENCH_metrics.json]
//	       [-bench-name ocean] [-bench-scale 0.2] [-bench-epoch 10000]
//
// The table view prints one row per epoch: mean/max link utilization,
// stall cycles, deliveries, per-class message counts, miss and predictor
// rates, and event-engine health. CSV carries the same columns
// machine-readably; JSON re-emits the validated series canonically.
//
// -bench measures the collector's overhead: it runs the same fixed
// simulation with metrics disabled and enabled, compares wall time, and
// writes a small JSON report. The simulated results must be identical —
// the benchmark double-checks cycles and misses agree — so the report
// isolates pure observer cost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"spcoh/internal/experiments"
	"spcoh/internal/metrics"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
	"spcoh/internal/stats"
	"spcoh/internal/workload"
)

func main() {
	format := flag.String("format", "table", "output format: table|csv|json")
	validate := flag.Bool("validate", false, "validate the series and exit (prints a summary line)")
	bench := flag.Bool("bench", false, "measure collector overhead instead of reading a series")
	benchOut := flag.String("bench-out", "results/BENCH_metrics.json", "overhead report path for -bench")
	benchName := flag.String("bench-name", "ocean", "benchmark for -bench")
	benchScale := flag.Float64("bench-scale", 0.2, "workload scale for -bench")
	benchEpoch := flag.Uint64("bench-epoch", 10000, "metrics epoch for the enabled half of -bench")
	flag.Parse()

	if *bench {
		if err := runBench(*benchName, *benchScale, *benchEpoch, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "spstat:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spstat [-format table|csv|json] [-validate] series.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spstat:", err)
		os.Exit(1)
	}
	series, err := metrics.ReadJSON(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spstat:", err)
		os.Exit(1)
	}

	if *validate {
		fmt.Printf("spstat: %s: valid series, %d epochs x %d cycles, %d links, %d nodes, %d total cycles\n",
			flag.Arg(0), len(series.Epochs), series.EpochCycles, series.Links, series.Nodes, series.Cycles)
		return
	}

	switch *format {
	case "table":
		renderTable(series, flag.Arg(0))
	case "csv":
		renderCSV(series)
	case "json":
		if err := series.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "spstat:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "spstat: unknown format %q (table|csv|json)\n", *format)
		os.Exit(2)
	}
}

// epochCells returns the rendered values of one epoch row, shared by the
// table and CSV views so the two never drift.
func epochCells(e *metrics.EpochRow) []any {
	util, _ := e.MaxLinkUtilization()
	var stall uint64
	for _, v := range e.LinkStall {
		stall += v
	}
	missLat := 0.0
	if e.Misses > 0 {
		missLat = float64(e.MissLatSum) / float64(e.Misses)
	}
	return []any{
		e.Epoch, e.Start, e.End,
		100 * e.MeanLinkUtilization(), 100 * util, stall, e.Delivered,
		e.ClassCount[metrics.ClassRequest], e.ClassCount[metrics.ClassResponse],
		e.ClassCount[metrics.ClassInvalidate], e.ClassCount[metrics.ClassAck],
		e.Misses, missLat, 100 * e.Accuracy(), 100 * e.Coverage(),
		e.Fired, e.QueueMax,
	}
}

var epochHeader = []string{
	"epoch", "start", "end", "util%", "maxUtil%", "stall", "delivered",
	"req", "resp", "inv", "ack", "misses", "missLat", "acc%", "cov%",
	"fired", "qmax",
}

func renderTable(s *metrics.Series, name string) {
	tb := stats.NewTable("spstat: "+name, epochHeader...)
	for i := range s.Epochs {
		tb.AddRowf(epochCells(&s.Epochs[i])...)
	}
	tb.AddNote("%d cycles in %d-cycle epochs; %d links, %d nodes", s.Cycles, s.EpochCycles, s.Links, s.Nodes)
	tb.Render(os.Stdout)
}

func renderCSV(s *metrics.Series) {
	for i, h := range epochHeader {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(h)
	}
	fmt.Println()
	for i := range s.Epochs {
		for j, c := range epochCells(&s.Epochs[i]) {
			if j > 0 {
				fmt.Print(",")
			}
			switch v := c.(type) {
			case float64:
				fmt.Printf("%.4f", v)
			default:
				fmt.Printf("%v", v)
			}
		}
		fmt.Println()
	}
}

// benchReport is the overhead measurement written by -bench.
type benchReport struct {
	Bench        string  `json:"bench"`
	Scale        float64 `json:"scale"`
	Seed         int64   `json:"seed"`
	MetricsEpoch uint64  `json:"metrics_epoch"`
	Cycles       uint64  `json:"cycles"`
	Epochs       int     `json:"epochs"`
	Runs         int     `json:"runs"`
	OffNanos     int64   `json:"off_nanos"`
	OnNanos      int64   `json:"on_nanos"`
	OverheadPct  float64 `json:"overhead_pct"`
}

func runBench(bench string, scale float64, epoch uint64, out string) error {
	prof, ok := workload.Builtin().Lookup(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	const seed, runs = 42, 9
	prog, err := prof.Program(16, scale, seed)
	if err != nil {
		return err
	}
	run := func(metricsEpoch uint64) (*sim.Result, time.Duration, error) {
		cfg := runcfg.RunConfig{Threads: 16, Scale: scale, Seed: seed, MetricsEpoch: metricsEpoch}
		opt, err := experiments.SimOptions(cfg, "dir", nil)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		r, err := sim.Run(prog, opt)
		return r, time.Since(start), err
	}

	// Warm up both configurations untimed: the first runs pay one-time
	// costs (page faults, branch-predictor and cache warmup, heap growth)
	// that would otherwise bias whichever side runs first. Then interleave
	// the timed off/on pairs so slow drift (thermal throttling, competing
	// load) hits both sides equally, and take medians, which shrug off the
	// occasional run an OS hiccup inflates.
	off, _, err := run(0)
	if err != nil {
		return err
	}
	on, _, err := run(epoch)
	if err != nil {
		return err
	}
	offTimes := make([]time.Duration, 0, runs)
	onTimes := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		_, offT, err := run(0)
		if err != nil {
			return err
		}
		_, onT, err := run(epoch)
		if err != nil {
			return err
		}
		offTimes = append(offTimes, offT)
		onTimes = append(onTimes, onT)
	}
	offWall := median(offTimes)
	onWall := median(onTimes)
	if off.Cycles != on.Cycles || off.Misses() != on.Misses() {
		return fmt.Errorf("metrics perturbed the simulation: cycles %d vs %d, misses %d vs %d",
			off.Cycles, on.Cycles, off.Misses(), on.Misses())
	}
	rep := benchReport{
		Bench:        bench,
		Scale:        scale,
		Seed:         seed,
		MetricsEpoch: epoch,
		Cycles:       uint64(off.Cycles),
		Epochs:       len(on.Metrics.Epochs),
		Runs:         runs,
		OffNanos:     offWall.Nanoseconds(),
		OnNanos:      onWall.Nanoseconds(),
		OverheadPct:  100 * (float64(onWall)/float64(offWall) - 1),
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("spstat: bench %s x%.2f: off %.1fms, on %.1fms (epoch %d, %d epochs), overhead %.2f%% -> %s\n",
		bench, scale, float64(offWall.Nanoseconds())/1e6, float64(onWall.Nanoseconds())/1e6,
		epoch, rep.Epochs, rep.OverheadPct, out)
	return nil
}

// median returns the middle of the sorted samples (lower middle when even).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
