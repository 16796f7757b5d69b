package sim

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/workload"
)

// buildProgram builds a built-in profile's program, failing tb on error.
func buildProgram(tb testing.TB, name string, threads int, scale float64, seed int64) *workload.Program {
	tb.Helper()
	p, ok := workload.Builtin().Lookup(name)
	if !ok {
		tb.Fatalf("unknown profile %q", name)
	}
	prog, err := p.Program(threads, scale, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

func buildSmall(t *testing.T, name string) *workload.Program {
	t.Helper()
	return buildProgram(t, name, 16, 0.05, 42)
}

func TestRunBaselineDirectory(t *testing.T) {
	prog := buildSmall(t, "ocean")
	res, err := Run(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Nodes.Misses == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Nodes.Communicating == 0 {
		t.Fatal("stencil workload must have communicating misses")
	}
	if res.Nodes.Predicted != 0 {
		t.Fatal("baseline must not predict")
	}
	if res.CommRatio() <= 0 || res.CommRatio() > 1 {
		t.Fatalf("comm ratio = %v", res.CommRatio())
	}
}

func TestRunBroadcast(t *testing.T) {
	prog := buildSmall(t, "ocean")
	opt := DefaultOptions()
	opt.Protocol = Broadcast
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snoop.Misses == 0 || res.Snoop.SnoopLookups == 0 {
		t.Fatalf("broadcast stats empty: %+v", res.Snoop)
	}
}

func TestBroadcastFasterMoreBandwidth(t *testing.T) {
	prog := buildSmall(t, "x264") // high communicating fraction
	dir, err := Run(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Protocol = Broadcast
	bc, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if bc.AvgMissLatency() >= dir.AvgMissLatency() {
		t.Fatalf("broadcast latency %.1f should beat directory %.1f",
			bc.AvgMissLatency(), dir.AvgMissLatency())
	}
	if bc.Net.Bytes <= dir.Net.Bytes {
		t.Fatalf("broadcast bytes %d should exceed directory %d", bc.Net.Bytes, dir.Net.Bytes)
	}
	if bc.Energy.Total() <= dir.Energy.Total() {
		t.Fatalf("broadcast energy should exceed directory")
	}
}

func TestSPPredictionImprovesLatency(t *testing.T) {
	prog := buildSmall(t, "streamcluster") // highly repetitive
	base, err := Run(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Predictors = core.NewSystem(core.DefaultConfig(16))
	sp, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Nodes.Predicted == 0 || sp.Nodes.PredCorrect == 0 {
		t.Fatalf("SP made no predictions: %+v", sp.Nodes)
	}
	if sp.AvgMissLatency() >= base.AvgMissLatency() {
		t.Fatalf("SP latency %.1f should beat baseline %.1f",
			sp.AvgMissLatency(), base.AvgMissLatency())
	}
	if sp.Cycles >= base.Cycles {
		t.Fatalf("SP cycles %d should beat baseline %d", sp.Cycles, base.Cycles)
	}
	if sp.Predictor != "SP" {
		t.Fatalf("predictor name = %q", sp.Predictor)
	}
}

func TestAllPredictorsRunAllShapes(t *testing.T) {
	// Cross product of a few structurally distinct benchmarks and every
	// predictor: must complete without deadlock or coherence violations.
	benches := []string{"fmm", "radiosity", "fft", "dedup"}
	build := func(which string) []predictor.Predictor {
		preds := make([]predictor.Predictor, 16)
		for i := range preds {
			switch which {
			case "ADDR":
				preds[i] = predictor.NewAddr(arch.NodeID(i), 16)
			case "INST":
				preds[i] = predictor.NewInst(arch.NodeID(i), 16)
			case "UNI":
				preds[i] = predictor.NewUni(arch.NodeID(i), 16)
			}
		}
		if which == "SP" {
			return core.NewSystem(core.DefaultConfig(16))
		}
		return preds
	}
	for _, b := range benches {
		prog := buildSmall(t, b)
		for _, which := range []string{"SP", "ADDR", "INST", "UNI"} {
			opt := DefaultOptions()
			opt.Predictors = build(which)
			res, err := Run(prog, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", b, which, err)
			}
			if res.Nodes.Misses == 0 {
				t.Fatalf("%s/%s: no misses", b, which)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	prog := buildSmall(t, "water-ns")
	opt := DefaultOptions()
	opt.Predictors = core.NewSystem(core.DefaultConfig(16))
	a, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Predictors = core.NewSystem(core.DefaultConfig(16))
	b, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Nodes != b.Nodes || a.Net != b.Net {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

type countingTracer struct {
	misses, syncs int
	lockSyncs     int
}

func (c *countingTracer) Miss(_ event.Time, _ arch.NodeID, _ arch.LineAddr, _ uint64,
	_ predictor.MissKind, _ predictor.Outcome) {
	c.misses++
}
func (c *countingTracer) Sync(_ event.Time, _ arch.NodeID, kind predictor.SyncKind, _ uint64) {
	c.syncs++
	if kind == predictor.SyncLock {
		c.lockSyncs++
	}
}

func TestTracerObservesRun(t *testing.T) {
	prog := buildSmall(t, "water-ns")
	tr := &countingTracer{}
	opt := DefaultOptions()
	opt.Tracer = tr
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.misses == 0 || tr.syncs == 0 || tr.lockSyncs == 0 {
		t.Fatalf("tracer saw misses=%d syncs=%d locks=%d", tr.misses, tr.syncs, tr.lockSyncs)
	}
	if uint64(tr.misses) != res.Nodes.Misses {
		t.Fatalf("tracer misses %d != stats misses %d", tr.misses, res.Nodes.Misses)
	}
}

func TestOracleRoundTrip(t *testing.T) {
	prog := buildSmall(t, "ocean")
	book := core.NewOracleBook()
	cfg := core.DefaultConfig(16)

	optRec := DefaultOptions()
	optRec.Predictors = core.RecorderSystem(cfg, book)
	if _, err := Run(prog, optRec); err != nil {
		t.Fatal(err)
	}

	optOr := DefaultOptions()
	optOr.Predictors = core.OracleSystem(16, book)
	res, err := Run(prog, optOr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes.PredCorrect == 0 {
		t.Fatal("oracle should predict correctly")
	}
	// The oracle should be at least as accurate as the on-line SP
	// predictor on a repetitive workload.
	optSP := DefaultOptions()
	optSP.Predictors = core.NewSystem(cfg)
	sp, err := Run(prog, optSP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes.Accuracy()+0.05 < sp.Nodes.Accuracy() {
		t.Fatalf("oracle accuracy %.2f well below SP %.2f", res.Nodes.Accuracy(), sp.Nodes.Accuracy())
	}
}

func TestThreadCountMismatch(t *testing.T) {
	prog := buildProgram(t, "ocean", 4, 0.05, 1)
	if _, err := Run(prog, DefaultOptions()); err == nil {
		t.Fatal("4 threads on a 16-node machine must error")
	}
}
