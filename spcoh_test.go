package spcoh_test

import (
	"reflect"
	"strings"
	"testing"

	"spcoh"
)

func TestBenchmarksList(t *testing.T) {
	b := spcoh.Benchmarks()
	if len(b) != 17 || b[0] != "fmm" || b[16] != "x264" {
		t.Fatalf("benchmarks = %v", b)
	}
}

func TestExperimentsList(t *testing.T) {
	e := spcoh.Experiments()
	if len(e) != 14 {
		t.Fatalf("experiments = %v", e)
	}
}

func TestRunBenchmarkDefaults(t *testing.T) {
	m, err := spcoh.RunBenchmark("x264", spcoh.Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.Misses == 0 || m.CommRatio <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Predictor != "directory" || m.PredictionAccuracy != 0 {
		t.Fatalf("baseline should not predict: %+v", m)
	}
}

func TestRunBenchmarkSP(t *testing.T) {
	m, err := spcoh.RunBenchmark("water-ns", spcoh.Options{Predictor: spcoh.SP, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.PredictionAccuracy <= 0 || m.StorageBits == 0 {
		t.Fatalf("SP metrics = %+v", m)
	}
	if len(m.AccuracyBySource) == 0 {
		t.Fatal("accuracy breakdown missing")
	}
}

func TestRunBenchmarkErrors(t *testing.T) {
	if _, err := spcoh.RunBenchmark("nope", spcoh.Options{}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := spcoh.RunBenchmark("ocean", spcoh.Options{Predictor: "bogus"}); err == nil {
		t.Fatal("unknown predictor must error")
	}
}

func TestRunBroadcast(t *testing.T) {
	m, err := spcoh.RunBenchmark("x264", spcoh.Options{Predictor: spcoh.Broadcast, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predictor != "broadcast" || m.Misses == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSPConfigOverride(t *testing.T) {
	base, err := spcoh.RunBenchmark("ocean", spcoh.Options{Predictor: spcoh.SP, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := spcoh.RunBenchmark("ocean", spcoh.Options{
		Predictor: spcoh.SP, Scale: 0.2, SPConfig: &spcoh.SPConfig{HistoryDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Misses == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if reflect.DeepEqual(m, base) {
		t.Fatal("HistoryDepth 1 left the run identical to the paper default (d=2)")
	}
}

// TestSPConfigZeroIsPaperDefault pins that SPConfig fields left at zero keep
// the paper defaults: restating the default history depth must reproduce
// the SPConfig-free run exactly (stride detection included).
func TestSPConfigZeroIsPaperDefault(t *testing.T) {
	base, err := spcoh.RunBenchmark("ocean", spcoh.Options{Predictor: spcoh.SP, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := spcoh.RunBenchmark("ocean", spcoh.Options{
		Predictor: spcoh.SP, Scale: 0.2, SPConfig: &spcoh.SPConfig{HistoryDepth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, base) {
		t.Fatalf("SPConfig{HistoryDepth: 2} changed the run: accuracy %.3f vs %.3f",
			m.PredictionAccuracy, base.PredictionAccuracy)
	}
}

func TestProgramBuilder(t *testing.T) {
	pb := spcoh.NewProgram("custom", 16)
	pb.DeclareBarriers(2)
	pb.DeclareLocks(2)
	cursors := make([]int, 16)
	for it := 0; it < 10; it++ {
		pb.Barrier(0)
		pb.ForAll(func(th *spcoh.Thread) {
			th.Produce(0, (th.ID()+1)%16, 4)
			th.Compute(100)
		})
		pb.Barrier(1)
		pb.ForAll(func(th *spcoh.Thread) {
			th.Consume(0, (th.ID()+15)%16, 4)
			th.CriticalSection(th.ID()%2, 4)
			th.PrivateWork(4, &cursors[th.ID()])
		})
	}
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Threads() != 16 || prog.Ops() == 0 {
		t.Fatalf("program: threads=%d ops=%d", prog.Threads(), prog.Ops())
	}
	if _, err := pb.Build(); err == nil {
		t.Fatal("double Build must error")
	}

	base, err := spcoh.RunProgram(prog, spcoh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A program is consumed by value semantics? No: rebuild for the SP run.
	pb2 := spcoh.NewProgram("custom", 16)
	pb2.DeclareBarriers(2)
	pb2.DeclareLocks(2)
	for it := 0; it < 10; it++ {
		pb2.Barrier(0)
		pb2.ForAll(func(th *spcoh.Thread) {
			th.Produce(0, (th.ID()+1)%16, 4)
			th.Compute(100)
		})
		pb2.Barrier(1)
		pb2.ForAll(func(th *spcoh.Thread) {
			th.Consume(0, (th.ID()+15)%16, 4)
			th.CriticalSection(th.ID()%2, 4)
			th.PrivateWork(4, &cursors[th.ID()])
		})
	}
	prog2, _ := pb2.Build()
	sp, err := spcoh.RunProgram(prog2, spcoh.Options{Predictor: spcoh.SP})
	if err != nil {
		t.Fatal(err)
	}
	if base.Misses == 0 || sp.PredictionAccuracy <= 0.3 {
		t.Fatalf("custom program: base %+v sp %+v", base, sp)
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment generation is slow")
	}
	out, err := spcoh.RunExperiment("fig1", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "x264") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, err := spcoh.RunExperiment("nope", 0.1); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunBenchmarkSPFiltered(t *testing.T) {
	sp, err := spcoh.RunBenchmark("radix", spcoh.Options{Predictor: spcoh.SP, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := spcoh.RunBenchmark("radix", spcoh.Options{Predictor: spcoh.SPFiltered, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if f.NetworkBytes >= sp.NetworkBytes {
		t.Fatalf("filter should cut bandwidth: %d vs %d", f.NetworkBytes, sp.NetworkBytes)
	}
	if f.PredictionAccuracy < sp.PredictionAccuracy-0.05 {
		t.Fatalf("filter should not cost accuracy: %.2f vs %.2f",
			f.PredictionAccuracy, sp.PredictionAccuracy)
	}
}

func TestFlexibleMachineSizes(t *testing.T) {
	for _, threads := range []int{4, 16} {
		m, err := spcoh.RunBenchmark("x264", spcoh.Options{Threads: threads, Scale: 0.2, Predictor: spcoh.SP})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if m.Misses == 0 {
			t.Fatalf("threads=%d: empty run", threads)
		}
	}
	if _, err := spcoh.RunBenchmark("x264", spcoh.Options{Threads: 5}); err == nil {
		t.Fatal("non-square thread count must error")
	}
}
