// Command spsim runs one benchmark on one protocol/predictor configuration
// and prints the measurements.
//
// Usage:
//
//	spsim -bench ocean -pred sp [-scale 0.2] [-seed 42] [-protocol dir|bcast]
//	spsim -all -pred sp
//	spsim -spec scenario.json -pred sp
//	spscen gen -seed 7 | spsim -spec - -pred sp
//	spsim -bench ocean -pred sp -metrics-epoch 10000 -metrics-out series.json
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

	"spcoh/internal/arch"
	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/metrics"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
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

func buildPredictors(kind string, nodes int) ([]predictor.Predictor, error) {
	switch kind {
	case "", "none", "dir":
		return nil, nil
	case "sp":
		return core.NewSystem(core.DefaultConfig(nodes)), nil
	case "spfilter":
		preds := core.NewSystem(core.DefaultConfig(nodes))
		for i := range preds {
			preds[i] = predictor.NewRegionFilter(preds[i])
		}
		return preds, nil
	case "addr", "inst", "uni":
		preds := make([]predictor.Predictor, nodes)
		for i := range preds {
			switch kind {
			case "addr":
				preds[i] = predictor.NewAddr(arch.NodeID(i), nodes)
			case "inst":
				preds[i] = predictor.NewInst(arch.NodeID(i), nodes)
			case "uni":
				preds[i] = predictor.NewUni(arch.NodeID(i), nodes)
			}
		}
		return preds, nil
	default:
		return nil, fmt.Errorf("unknown predictor %q (none|sp|spfilter|addr|inst|uni)", kind)
	}
}

func main() {
	bench := flag.String("bench", "ocean", "benchmark name")
	all := flag.Bool("all", false, "run every benchmark")
	specPath := flag.String("spec", "", `scenario spec file instead of a built-in benchmark ("-" = stdin)`)
	pred := flag.String("pred", "none", "predictor: none|sp|spfilter|addr|inst|uni")
	proto := flag.String("protocol", "dir", "protocol: dir|bcast")
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
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
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

	mode, err := sim.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		os.Exit(2)
	}

	if *metricsOut != "" && *metricsEpoch == 0 {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-out requires -metrics-epoch")
		os.Exit(2)
	}
	if *metricsEpoch > 0 && *all {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-epoch is incompatible with -all (one series per run)")
		os.Exit(2)
	}

	machine := protocol.DefaultConfig()
	if *threads != machine.Nodes {
		var err error
		if machine, err = protocol.ConfigFor(*threads); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(2)
		}
	}

	var spec *scenario.Spec
	if *specPath != "" {
		if *all {
			fmt.Fprintln(os.Stderr, "spsim: -spec is incompatible with -all")
			os.Exit(2)
		}
		var err error
		if spec, err = loadSpec(*specPath); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
	}

	names := []string{*bench}
	if *all {
		names = workload.Names()
	}
	if spec != nil {
		names = []string{spec.Name}
	}

	tb := stats.NewTable("spsim: "+*proto+"/"+*pred,
		"benchmark", "cycles", "misses", "comm%", "missLat", "commLat", "nonCommLat",
		"acc%", "predTgt", "actTgt", "netKB", "energy")
	// With -all, a bad benchmark is recorded and the rest still run; the
	// failures are reported together at the end. A single-benchmark run
	// keeps fail-fast behaviour.
	var failures []string
	fail := func(name string, err error) {
		if !*all {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
		failures = append(failures, fmt.Sprintf("%s: %v", name, err))
	}
	for _, name := range names {
		var prog *workload.Program
		var err error
		if spec != nil {
			prog, err = workload.FromSpec(spec, *threads, *scale, *seed)
		} else {
			var p workload.Profile
			if p, err = workload.ByName(name); err == nil {
				prog, err = p.Program(*threads, *scale, *seed)
			}
		}
		if err != nil {
			fail(name, err)
			continue
		}
		opt := sim.DefaultOptions()
		opt.Machine = machine
		if *proto == "bcast" {
			opt.Protocol = sim.Broadcast
		} else {
			opt.Predictors, err = buildPredictors(*pred, *threads)
			if err != nil {
				// A bad predictor name fails every benchmark: always fatal.
				fmt.Fprintln(os.Stderr, "spsim:", err)
				os.Exit(1)
			}
		}
		opt.Mode = mode
		opt.MetricsEpoch = event.Time(*metricsEpoch)
		res, err := sim.Run(prog, opt)
		if err != nil {
			fail(name, err)
			continue
		}
		if res.Metrics != nil && *metricsOut != "" {
			if err := writeSeries(*metricsOut, res.Metrics); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				os.Exit(1)
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
		os.Exit(1)
	}
}

func row(tb *stats.Table, name string, r *sim.Result) {
	n := r.Nodes
	commLat, nonCommLat := 0.0, 0.0
	acc := 0.0
	predTgt, actTgt := 0.0, 0.0
	if r.Protocol == sim.Directory {
		if n.Communicating > 0 {
			commLat = float64(n.CommLatencySum) / float64(n.Communicating)
			acc = 100 * n.Accuracy()
		}
		if n.NonCommunicating > 0 {
			nonCommLat = float64(n.NonCommLatencySum) / float64(n.NonCommunicating)
		}
		if n.Predicted > 0 {
			predTgt = float64(n.PredTargets) / float64(n.Predicted)
		}
		if n.Misses > 0 {
			actTgt = float64(n.ActualTargets) / float64(n.Misses)
		}
	}
	tb.AddRowf(name, uint64(r.Cycles), r.Misses(), 100*r.CommRatio(),
		r.AvgMissLatency(), commLat, nonCommLat, acc, predTgt, actTgt,
		r.Net.Bytes/1024, r.Energy.Total())
}
