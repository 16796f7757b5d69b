package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/core"
	"spcoh/internal/predictor"
	"spcoh/internal/trace"
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

func TestTracerObservesRun(t *testing.T) {
	prog := buildSmall(t, "water-ns")
	tr := &trace.Collector{}
	opt := DefaultOptions()
	opt.Tracer = tr
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	var misses, syncs, lockSyncs uint64
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvMiss:
			misses++
		case trace.EvSync:
			syncs++
			if e.SyncKind == predictor.SyncLock {
				lockSyncs++
			}
		}
	}
	if misses == 0 || syncs == 0 || lockSyncs == 0 {
		t.Fatalf("tracer saw misses=%d syncs=%d locks=%d", misses, syncs, lockSyncs)
	}
	if misses != res.Nodes.Misses {
		t.Fatalf("tracer misses %d != stats misses %d", misses, res.Nodes.Misses)
	}
}

// TestTracerDoesNotPerturbSimulation asserts the trace collector is a pure
// observer: a traced run produces exactly the same Result as the same run
// without it. addr and sp+filter train on external requests
// (TrainExternal), which a tracer spliced in front of the predictor once
// had to forward by hand.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	perNode := func(f func(arch.NodeID) predictor.Predictor) []predictor.Predictor {
		preds := make([]predictor.Predictor, 16)
		for i := range preds {
			preds[i] = f(arch.NodeID(i))
		}
		return preds
	}
	cases := []struct {
		name  string
		preds func() []predictor.Predictor
	}{
		{"dir", func() []predictor.Predictor { return nil }},
		{"sp", func() []predictor.Predictor { return core.NewSystem(core.DefaultConfig(16)) }},
		{"addr", func() []predictor.Predictor {
			return perNode(func(id arch.NodeID) predictor.Predictor { return predictor.NewAddr(id, 16) })
		}},
		{"sp+filter", func() []predictor.Predictor {
			preds := core.NewSystem(core.DefaultConfig(16))
			for i := range preds {
				preds[i] = predictor.NewRegionFilter(preds[i])
			}
			return preds
		}},
	}
	prog := buildProgram(t, "dedup", 16, 0.05, 7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Predictors = tc.preds()
			off, err := Run(prog, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Predictors = tc.preds()
			opt.Tracer = &trace.Collector{}
			on, err := Run(prog, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(opt.Tracer.Events) == 0 {
				t.Fatal("tracer recorded nothing")
			}
			a, b := fmt.Sprintf("%+v", *off), fmt.Sprintf("%+v", *on)
			if a != b {
				t.Fatalf("tracer perturbed the simulation:\noff: %s\non:  %s", a, b)
			}
		})
	}
}

// TestRunRejectsTracerCombinations asserts a Tracer is refused where it
// would observe nothing (broadcast snooping has no sync-points and no
// miss outcomes to trace) or would share the run's one observer slot with
// the metrics collector.
func TestRunRejectsTracerCombinations(t *testing.T) {
	prog := buildSmall(t, "ocean")
	opt := DefaultOptions()
	opt.Protocol = Broadcast
	opt.Tracer = &trace.Collector{}
	if _, err := Run(prog, opt); err == nil {
		t.Error("Tracer on a broadcast run must error")
	}
	opt = DefaultOptions()
	opt.Tracer = &trace.Collector{}
	opt.MetricsEpoch = 1000
	if _, err := Run(prog, opt); err == nil {
		t.Error("Tracer with MetricsEpoch must error")
	}
}

// TestTraceBytesPinned pins the binary trace of a traced bodytrack run
// (scale 0.05, seed 42): the §3.2 characterization reads these bytes, so
// any change to what the trace hooks see or when shows up here.
func TestTraceBytesPinned(t *testing.T) {
	prog := buildSmall(t, "bodytrack")
	var buf bytes.Buffer
	opt := DefaultOptions()
	opt.Tracer = &trace.Collector{W: trace.NewWriter(&buf)}
	if _, err := Run(prog, opt); err != nil {
		t.Fatal(err)
	}
	if err := opt.Tracer.W.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "9fb5d015b61e7e9409a865f52288c5962bc6f167dc5c9daa1d9a82f7026d4251"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("bodytrack trace: %d bytes, %d events, sha256 %s, want %s",
			buf.Len(), len(opt.Tracer.Events), got, want)
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
