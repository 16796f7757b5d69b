package sim

import (
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/workload"
)

// benchProgram builds the seeded benchmark workload once per process; the
// build cost (trace synthesis) is excluded from every timed iteration.
func benchProgram(b *testing.B, name string, scale float64) *workload.Program {
	b.Helper()
	return buildProgram(b, name, 16, scale, 42)
}

// runFull executes one full-system simulation and reports simulated
// cycles/sec and events/sec; perfbench's sim_cycles_per_s is the same
// axis end to end (see DESIGN.md §11).
func runFull(b *testing.B, prog *workload.Program, opt func() Options) {
	b.Helper()
	b.ReportAllocs()
	var cycles, events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, opt())
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
		events += res.Events
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(cycles)/secs, "simcycles/s")
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

// BenchmarkFullSystemDir is the baseline directory protocol on the paper's
// 16-node machine.
func BenchmarkFullSystemDir(b *testing.B) {
	prog := benchProgram(b, "ocean", 0.1)
	runFull(b, prog, DefaultOptions)
}

// BenchmarkFullSystemSP adds the paper's SP predictor (the configuration
// every headline experiment runs).
func BenchmarkFullSystemSP(b *testing.B) {
	prog := benchProgram(b, "ocean", 0.1)
	runFull(b, prog, func() Options {
		opt := DefaultOptions()
		opt.Predictors = core.NewSystem(core.DefaultConfig(16))
		return opt
	})
}

// BenchmarkFullSystemBcast is the broadcast snooping comparison protocol,
// which stresses Network.Broadcast.
func BenchmarkFullSystemBcast(b *testing.B) {
	prog := benchProgram(b, "streamcluster", 0.1)
	runFull(b, prog, func() Options {
		opt := DefaultOptions()
		opt.Protocol = Broadcast
		return opt
	})
}
