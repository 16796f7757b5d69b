// Package spcoh is a from-scratch reproduction of "Predicting Coherence
// Communication by Tracking Synchronization Points at Run Time"
// (Demetriades & Cho, MICRO 2012): a cycle-level chip-multiprocessor
// simulator with a directory-based MESIF coherence protocol extended with
// destination-set prediction, a broadcast snooping baseline, the paper's
// SP-predictor and its ADDR/INST/UNI competitors, synthetic SPLASH-2 and
// PARSEC workload stand-ins, and a harness that regenerates every table
// and figure of the paper's evaluation.
//
// Quick start:
//
//	m, err := spcoh.RunBenchmark("ocean", spcoh.Options{Predictor: spcoh.SP})
//	fmt.Printf("miss latency %.1f cycles, accuracy %.0f%%\n",
//		m.AvgMissLatency, 100*m.PredictionAccuracy)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// reproductions of the paper's results.
package spcoh

import (
	"fmt"

	"spcoh/internal/core"
	"spcoh/internal/experiments"
	"spcoh/internal/predictor"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// PredictorKind selects the coherence configuration of a run. The values
// are configuration names of the experiments harness, so a kind means the
// same machine here, in spsim and in a sweep cell.
type PredictorKind string

// Available configurations.
const (
	// Directory is the baseline MESIF directory protocol (no prediction).
	Directory PredictorKind = "dir"
	// SP is the paper's synchronization-point-based predictor.
	SP PredictorKind = "sp"
	// Addr is the macroblock address-indexed group predictor.
	Addr PredictorKind = "addr"
	// Inst is the instruction (PC) indexed group predictor.
	Inst PredictorKind = "inst"
	// Uni is the single-entry locality predictor.
	Uni PredictorKind = "uni"
	// SPFiltered is SP behind a region snoop filter that suppresses
	// prediction attempts on private data (the paper's §5.3 discussion).
	SPFiltered PredictorKind = "sp+filter"
	// Broadcast is the snooping protocol baseline.
	Broadcast PredictorKind = "bcast"
)

// Options configures a benchmark run. The zero value runs the baseline
// directory protocol on the paper's 16-core machine at full workload scale.
type Options struct {
	Predictor PredictorKind // default Directory
	Scale     float64       // workload scale; default 1.0
	Seed      int64         // workload build seed; default 42
	// Threads is the core/thread count; default 16 (the paper's 4x4
	// mesh). Any perfect square up to 256 selects the matching square
	// mesh with the same per-tile parameters.
	Threads int

	// SPConfig overrides the SP-predictor parameters (nil = paper
	// defaults). Only consulted when Predictor == SP.
	SPConfig *SPConfig
}

// SPConfig mirrors the tunable parameters of the SP-predictor (§4). The
// zero value of every field means the paper default.
type SPConfig struct {
	HistoryDepth  int     // signature history depth d (0 = 2)
	HotThreshold  float64 // hot-set share threshold (0 = 0.10)
	WarmupMisses  int     // d=0 warm-up (0 = 8; see package core)
	NoiseMinComm  int     // noisy-instance filter (0 = 4)
	ConfidenceMax int     // confidence counter ceiling (0 = 15)
	DisableStride bool    // turn off the stride-2 repetitive pattern policy
	MaxEntries    int     // SP-table capacity (0 = unlimited)
}

// apply returns c with every field s sets overridden.
func (s *SPConfig) apply(c core.Config) core.Config {
	if s.HistoryDepth > 0 {
		c.HistoryDepth = s.HistoryDepth
	}
	if s.HotThreshold > 0 {
		c.HotThreshold = s.HotThreshold
	}
	if s.WarmupMisses > 0 {
		c.WarmupMisses = s.WarmupMisses
	}
	if s.NoiseMinComm > 0 {
		c.NoiseMinComm = s.NoiseMinComm
	}
	if s.ConfidenceMax > 0 {
		c.ConfidenceMax = s.ConfidenceMax
	}
	if s.DisableStride {
		c.StrideDetect = false
	}
	if s.MaxEntries > 0 {
		c.MaxEntries = s.MaxEntries
	}
	return c
}

func (o Options) normalize() Options {
	if o.Predictor == "" {
		o.Predictor = Directory
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Threads == 0 {
		o.Threads = 16
	}
	return o
}

// Metrics are the measurements of one run — the quantities the paper's
// evaluation reports.
type Metrics struct {
	Benchmark string
	Predictor string

	Cycles uint64 // execution time
	Misses uint64 // L2 misses

	CommRatio          float64 // fraction of communicating misses (Fig. 1)
	AvgMissLatency     float64 // cycles (Fig. 8)
	CommMissLatency    float64
	NonCommMissLatency float64

	PredictionAccuracy float64 // fraction of communicating misses predicted (Fig. 7)
	AccuracyBySource   map[string]float64
	PredictedTargets   float64 // avg predicted set size (Table 5)
	ActualTargets      float64 // avg minimum sufficient set size (Table 5)

	NetworkBytes uint64  // interconnect traffic (Fig. 9)
	Energy       float64 // NoC + lookup energy, model units (Fig. 11)
	StorageBits  int     // predictor storage (Figs. 12-13)
}

// Benchmarks lists the 17 workloads in the paper's order.
func Benchmarks() []string { return workload.Builtin().Names() }

// Experiments lists the regenerable table/figure IDs.
func Experiments() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// RunBenchmark simulates one named benchmark under the given options.
func RunBenchmark(bench string, o Options) (*Metrics, error) {
	o = o.normalize()
	prof, ok := workload.Builtin().Lookup(bench)
	if !ok {
		return nil, fmt.Errorf("spcoh: unknown benchmark %q", bench)
	}
	prog, err := prof.Program(o.Threads, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	return RunProgram(&Program{p: prog}, o)
}

// RunProgram simulates a custom program (see NewProgram). The machine is
// the paper's 16-core CMP by default; any other perfect-square thread
// count up to 256 selects the matching square mesh with the same per-tile
// parameters.
func RunProgram(p *Program, o Options) (*Metrics, error) {
	o = o.normalize()
	cfg := runcfg.RunConfig{Threads: o.Threads, Scale: o.Scale, Seed: o.Seed}
	opt, err := experiments.SimOptions(cfg, string(o.Predictor), nil)
	if err != nil {
		return nil, err
	}
	if o.Predictor == SP && o.SPConfig != nil {
		opt.Predictors = core.NewSystem(o.SPConfig.apply(core.DefaultConfig(o.Threads)))
	}
	res, err := sim.Run(p.p, opt)
	if err != nil {
		return nil, err
	}
	return toMetrics(res), nil
}

func toMetrics(res *sim.Result) *Metrics {
	n := &res.Nodes
	m := &Metrics{
		Benchmark:          res.Benchmark,
		Predictor:          res.Predictor,
		Cycles:             uint64(res.Cycles),
		Misses:             res.Misses(),
		CommRatio:          res.CommRatio(),
		AvgMissLatency:     res.AvgMissLatency(),
		CommMissLatency:    n.AvgCommLatency(),
		NonCommMissLatency: n.AvgNonCommLatency(),
		PredictionAccuracy: n.Accuracy(),
		PredictedTargets:   n.AvgPredTargets(),
		ActualTargets:      n.AvgActualTargets(),
		NetworkBytes:       res.Net.Bytes,
		Energy:             res.Energy.Total(),
		StorageBits:        res.StorageBits,
	}
	if n.Communicating > 0 {
		m.AccuracyBySource = map[string]float64{}
		for tag, c := range n.PredCorrectByTag {
			if c > 0 {
				m.AccuracyBySource[predictor.Tag(tag).String()] =
					float64(c) / float64(n.Communicating)
			}
		}
	}
	return m
}

// RunExperiment regenerates one paper table/figure and returns it rendered
// as text. Scale 0 means full scale.
func RunExperiment(id string, scale float64) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	cfg := experiments.Default()
	if scale > 0 {
		cfg.Scale = scale
	}
	tab, err := e.Run(experiments.NewRunner(cfg))
	if err != nil {
		return "", err
	}
	return tab.String(), nil
}
