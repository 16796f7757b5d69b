// Command spsim runs benchmarks under one coherence configuration and
// prints the measurements.
//
// Usage:
//
//	spsim -bench ocean -pred sp [-scale 0.2] [-seed 42]
//	spsim -all -pred bcast
//	spsim -spec scenario.json -pred sp
//	spscen gen -seed 7 | spsim -spec - -pred sp
//	spsim -bench ocean -pred sp -metrics-epoch 10000 -metrics-out series.json
//
// -pred names one configuration of the experiments harness
// (experiments.Kinds: dir, bcast, sp, sp+filter, sp512, addr, inst, uni,
// addr-small, inst-small, oracle), so a row here is the same machine as
// the matching spbench figure or spsweep cell.
//
// With -spec the workload comes from a declarative scenario file
// (internal/scenario; "-" reads stdin) instead of a built-in profile.
//
// With -metrics-epoch N the run attaches the run-time metrics collector
// (internal/metrics) sampling every N cycles and writes the deterministic
// JSON time-series to -metrics-out (render it with spstat). Incompatible
// with -all: one series file describes one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"spcoh/internal/experiments"
	"spcoh/internal/metrics"
	"spcoh/internal/protocol"
	"spcoh/internal/runcfg"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/stats"
	"spcoh/internal/workload"
)

// loadSpec reads a scenario spec from a file or, for "-", from stdin.
func loadSpec(path string) (*scenario.Spec, error) {
	if path != "-" {
		return scenario.Load(path)
	}
	b, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, fmt.Errorf("scenario: read stdin: %w", err)
	}
	return scenario.Parse(b)
}

// writeSeries atomically-ish writes the series (truncate-then-write is fine
// for a CLI output file).
func writeSeries(path string, s *metrics.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that the deferred
// profile writes happen on failing exits too.
func run() int {
	bench := flag.String("bench", "ocean", "benchmark name")
	all := flag.Bool("all", false, "run every benchmark")
	specPath := flag.String("spec", "", `scenario spec file instead of a built-in benchmark ("-" = stdin)`)
	pred := flag.String("pred", "dir", "configuration: "+strings.Join(experiments.Kinds(), "|"))
	modeFlag := flag.String("mode", "detailed", "simulation fidelity: detailed|fast (fast skips NoC contention; counts stay exact, timing is approximate)")
	scale := flag.Float64("scale", 0.2, "workload scale factor")
	seed := flag.Int64("seed", 42, "workload build seed")
	threads := flag.Int("threads", 16, "thread/node count (a perfect-square mesh: 16, 64, 256, ...)")
	metricsEpoch := flag.Uint64("metrics-epoch", 0, "metrics sampling epoch in cycles (0 = no metrics)")
	metricsOut := flag.String("metrics-out", "", "write the metrics time-series JSON here (requires -metrics-epoch)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write an allocation profile here on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
			}
		}()
	}

	if !slices.Contains(experiments.Kinds(), *pred) {
		fmt.Fprintf(os.Stderr, "spsim: unknown configuration %q (have: %s)\n",
			*pred, strings.Join(experiments.Kinds(), ","))
		return 2
	}
	mode, err := sim.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		return 2
	}
	// "detailed" (the flag default) runs as "", the spelling every other
	// entry point uses for the detailed model.
	if mode == sim.ModeDetailed {
		mode = ""
	}

	if *metricsOut != "" && *metricsEpoch == 0 {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-out requires -metrics-epoch")
		return 2
	}
	if *metricsEpoch > 0 && *all {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-epoch is incompatible with -all (one series per run)")
		return 2
	}

	if _, err := protocol.ConfigFor(*threads); err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		return 2
	}

	var spec *scenario.Spec
	if *specPath != "" {
		if *all {
			fmt.Fprintln(os.Stderr, "spsim: -spec is incompatible with -all")
			return 2
		}
		if spec, err = loadSpec(*specPath); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			return 1
		}
	}

	names := []string{*bench}
	if *all {
		names = workload.Builtin().Names()
	}
	r := experiments.NewRunner(runcfg.RunConfig{Threads: *threads, Scale: *scale, Seed: *seed,
		MetricsEpoch: *metricsEpoch, Mode: string(mode)})
	if spec != nil {
		names = []string{spec.Name}
		r.Spec = spec
	}

	tb := stats.NewTable("spsim: "+*pred,
		"benchmark", "cycles", "misses", "comm%", "missLat", "commLat", "nonCommLat",
		"acc%", "predTgt", "actTgt", "netKB", "energy")
	// With -all, a bad benchmark is recorded and the rest still run; the
	// failures are reported together at the end. A single-benchmark run
	// keeps fail-fast behaviour.
	var failures []string
	for _, name := range names {
		res, err := r.Run(name, *pred)
		if err != nil {
			if !*all {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return 1
			}
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if res.Metrics != nil && *metricsOut != "" {
			if err := writeSeries(*metricsOut, res.Metrics); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "spsim: metrics series (%d epochs) written to %s\n",
				len(res.Metrics.Epochs), *metricsOut)
		}
		row(tb, name, res)
	}
	tb.Render(os.Stdout)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "spsim: %d/%d benchmarks failed:\n", len(failures), len(names))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	return 0
}

func row(tb *stats.Table, name string, r *sim.Result) {
	n := &r.Nodes
	var commLat, nonCommLat, acc, predTgt, actTgt float64
	if r.Protocol == sim.Directory {
		commLat, nonCommLat = n.AvgCommLatency(), n.AvgNonCommLatency()
		acc = 100 * n.Accuracy()
		predTgt, actTgt = n.AvgPredTargets(), n.AvgActualTargets()
	}
	tb.AddRowf(name, uint64(r.Cycles), r.Misses(), 100*r.CommRatio(),
		r.AvgMissLatency(), commLat, nonCommLat, acc, predTgt, actTgt,
		r.Net.Bytes/1024, r.Energy.Total())
}
