// Ablation benchmarks for the SP-predictor design choices DESIGN.md §5
// calls out: hot-set threshold, history depth, stride detection,
// confidence/recovery, warm-up, noise filter, lock-entry sharing and the
// ADDR predictor's macroblock size. Each reports accuracy (and where
// relevant, bandwidth) as custom metrics.
package spcoh_test

import (
	"fmt"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/core"
	"spcoh/internal/predictor"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// ablationProgram builds a built-in benchmark on the 16-core machine.
func ablationProgram(b *testing.B, bench string, scale float64) *workload.Program {
	b.Helper()
	prof, ok := workload.Builtin().Lookup(bench)
	if !ok {
		b.Fatalf("unknown benchmark %q", bench)
	}
	prog, err := prof.Program(16, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// ablationRun runs one benchmark with a custom SP configuration and
// reports accuracy and added bandwidth.
func ablationRun(b *testing.B, bench string, mutate func(*core.Config)) {
	b.Helper()
	scale := 0.5
	if testing.Short() {
		scale = 0.15
	}
	prog := ablationProgram(b, bench, scale)
	var acc, predTargets float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(16)
		if mutate != nil {
			mutate(&cfg)
		}
		opt := sim.DefaultOptions()
		opt.Predictors = core.NewSystem(cfg)
		res, err := sim.Run(prog, opt)
		if err != nil {
			b.Fatal(err)
		}
		acc = 100 * res.Nodes.Accuracy()
		predTargets = res.Nodes.AvgPredTargets()
	}
	b.ReportMetric(acc, "accuracy-%")
	b.ReportMetric(predTargets, "pred-targets/miss")
}

func BenchmarkAblationHotThreshold(b *testing.B) {
	for _, th := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmt.Sprintf("threshold=%.2f", th), func(b *testing.B) {
			ablationRun(b, "water-ns", func(c *core.Config) { c.HotThreshold = th })
		})
	}
}

func BenchmarkAblationHistoryDepth(b *testing.B) {
	for _, d := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			ablationRun(b, "ocean", func(c *core.Config) { c.HistoryDepth = d })
		})
	}
}

func BenchmarkAblationStrideDetect(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("stride=%v", on), func(b *testing.B) {
			// ocean's red-black sweeps are the stride-2 pattern.
			ablationRun(b, "ocean", func(c *core.Config) { c.StrideDetect = on })
		})
	}
}

func BenchmarkAblationConfidence(b *testing.B) {
	for _, max := range []int{0, 3, 15} {
		max := max
		b.Run(fmt.Sprintf("confMax=%d", max), func(b *testing.B) {
			// radiosity's random patterns exercise recovery.
			ablationRun(b, "radiosity", func(c *core.Config) {
				if max == 0 {
					c.ConfidenceMax = 1 << 30 // effectively never recover
				} else {
					c.ConfidenceMax = max
				}
			})
		})
	}
}

func BenchmarkAblationWarmup(b *testing.B) {
	for _, w := range []int{4, 8, 30} {
		b.Run(fmt.Sprintf("warmup=%d", w), func(b *testing.B) {
			// fft's unreplayed epochs rely on d=0 prediction.
			ablationRun(b, "fft", func(c *core.Config) { c.WarmupMisses = w })
		})
	}
}

func BenchmarkAblationNoiseFilter(b *testing.B) {
	for _, min := range []int{0, 4, 12} {
		b.Run(fmt.Sprintf("noiseMin=%d", min), func(b *testing.B) {
			ablationRun(b, "fmm", func(c *core.Config) { c.NoiseMinComm = min })
		})
	}
}

// BenchmarkAblationLockSharing compares the paper's shared lock entries
// against private per-processor lock history: without sharing, a core
// cannot learn who held the lock last.
func BenchmarkAblationLockSharing(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		prog := ablationProgram(b, "water-ns", 0.5)
		var acc float64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(16)
			var preds []predictor.Predictor
			if shared {
				preds = core.NewSystem(cfg)
			} else {
				preds = make([]predictor.Predictor, 16)
				for j := range preds {
					preds[j] = core.NewPredictor(cfg, arch.NodeID(j), nil) // private tables
				}
			}
			opt := sim.DefaultOptions()
			opt.Predictors = preds
			res, err := sim.Run(prog, opt)
			if err != nil {
				b.Fatal(err)
			}
			acc = 100 * res.Nodes.Accuracy()
		}
		b.ReportMetric(acc, "accuracy-%")
	}
	b.Run("shared", func(b *testing.B) { run(b, true) })
	b.Run("private", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationMacroblock sweeps the ADDR predictor's indexing
// granularity (64B line vs the paper's 256B macroblock vs 1KB).
func BenchmarkAblationMacroblock(b *testing.B) {
	for _, bits := range []int{6, 8, 10} {
		bits := bits
		b.Run(fmt.Sprintf("granularity=%dB", 1<<bits), func(b *testing.B) {
			prog := ablationProgram(b, "ocean", 0.5)
			var acc float64
			var storage int
			for i := 0; i < b.N; i++ {
				preds := make([]predictor.Predictor, 16)
				for j := range preds {
					cfg := predictor.DefaultAddrConfig(16)
					cfg.IndexGranularityBits = bits
					preds[j] = predictor.NewGroup("ADDR", arch.NodeID(j), cfg)
				}
				opt := sim.DefaultOptions()
				opt.Predictors = preds
				res, err := sim.Run(prog, opt)
				if err != nil {
					b.Fatal(err)
				}
				acc = 100 * res.Nodes.Accuracy()
				storage = res.StorageBits / 16
			}
			b.ReportMetric(acc, "accuracy-%")
			b.ReportMetric(float64(storage), "bits/node")
		})
	}
}

// BenchmarkExtensionSnoopFilter measures the §5.3 orthogonal technique:
// SP behind a region snoop filter should cut the wasted prediction
// bandwidth of Figure 9 without losing accuracy.
func BenchmarkExtensionSnoopFilter(b *testing.B) {
	run := func(b *testing.B, filtered bool) {
		prog := ablationProgram(b, "radix", 0.5) // large non-communicating fraction
		var acc, kb float64
		for i := 0; i < b.N; i++ {
			preds := core.NewSystem(core.DefaultConfig(16))
			if filtered {
				for j := range preds {
					preds[j] = predictor.NewRegionFilter(preds[j])
				}
			}
			opt := sim.DefaultOptions()
			opt.Predictors = preds
			res, err := sim.Run(prog, opt)
			if err != nil {
				b.Fatal(err)
			}
			acc = 100 * res.Nodes.Accuracy()
			kb = float64(res.Net.Bytes) / 1024
		}
		b.ReportMetric(acc, "accuracy-%")
		b.ReportMetric(kb, "net-KB")
	}
	b.Run("sp", func(b *testing.B) { run(b, false) })
	b.Run("sp+filter", func(b *testing.B) { run(b, true) })
}

// BenchmarkExtensionOwnerPolicy compares the group policy against the
// owner and group/owner policies of the destination-set design space.
func BenchmarkExtensionOwnerPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    predictor.Policy
	}{{"group", predictor.PolicyGroup}, {"owner", predictor.PolicyOwner}, {"group-owner", predictor.PolicyGroupOwner}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			prog := ablationProgram(b, "water-ns", 0.5)
			var acc, kb float64
			for i := 0; i < b.N; i++ {
				preds := make([]predictor.Predictor, 16)
				for j := range preds {
					cfg := predictor.DefaultAddrConfig(16)
					cfg.Policy = pol.p
					preds[j] = predictor.NewGroup("ADDR", arch.NodeID(j), cfg)
				}
				opt := sim.DefaultOptions()
				opt.Predictors = preds
				res, err := sim.Run(prog, opt)
				if err != nil {
					b.Fatal(err)
				}
				acc = 100 * res.Nodes.Accuracy()
				kb = float64(res.Net.Bytes) / 1024
			}
			b.ReportMetric(acc, "accuracy-%")
			b.ReportMetric(kb, "net-KB")
		})
	}
}
