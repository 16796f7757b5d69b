package spcoh_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"spcoh"
)

// pinnedMetrics holds the SHA-256 of json.Marshal(Metrics) for x264 at
// scale 0.05 under every predictor kind, plus one custom program. The
// digests were captured before the run-configuration table was unified;
// they pin that every public entry point still produces the same bytes.
var pinnedMetrics = map[string]string{
	"x264/directory": "69b30b4ddb7150957e076c70a4401527c0f484272f3eaf46459edf91b8cd6177",
	"x264/SP":        "1af4fbfbb6a68019750f586406f4a1ce9d451daf9f6e7eba69e5aa5a9f532b3e",
	"x264/ADDR":      "92bcceb07f982626c4c10ef48605b841b874c95ca25da0e7c6d6f7e008f97b83",
	"x264/INST":      "641eb13d61e5b75e772bacc15917bbd869e5d4b0662a2ba48d3699d60049fbb8",
	"x264/UNI":       "b0acfbf14e511b3a31a0912262ccb21f232fdd488d6ee291108e836f81422823",
	"x264/SP+filter": "9d5c47602005060a30f52b78aa3e75ef33299e0ce65469b91dbaafa25c06b611",
	"x264/broadcast": "9e21036047dd61ed14ed1f4eb4e87261c2c4b176c68c22b730f899ac48cacf42",
	"program/sp":     "2f744337ad69a8c7f3fc62c5150cc4c2b18f9fcc58f60b94d01245894bc63a8a",
}

func metricsDigest(t *testing.T, m *spcoh.Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinProgram is a small custom program exercising barriers, locks,
// producer-consumer exchange and private work.
func pinProgram(t *testing.T) *spcoh.Program {
	t.Helper()
	pb := spcoh.NewProgram("pin", 16)
	pb.DeclareBarriers(2)
	pb.DeclareLocks(2)
	cursors := make([]int, 16)
	for it := 0; it < 6; it++ {
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
	return prog
}

func TestPinnedMetricsDigests(t *testing.T) {
	kinds := []spcoh.PredictorKind{spcoh.Directory, spcoh.SP, spcoh.Addr, spcoh.Inst,
		spcoh.Uni, spcoh.SPFiltered, spcoh.Broadcast}
	for _, k := range kinds {
		m, err := spcoh.RunBenchmark("x264", spcoh.Options{Predictor: k, Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		key := "x264/" + m.Predictor
		if got := metricsDigest(t, m); got != pinnedMetrics[key] {
			t.Errorf("%s (kind %s): digest %s, pinned %s", key, k, got, pinnedMetrics[key])
		}
	}
	m, err := spcoh.RunProgram(pinProgram(t), spcoh.Options{Predictor: spcoh.SP})
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsDigest(t, m); got != pinnedMetrics["program/sp"] {
		t.Errorf("program/sp: digest %s, pinned %s", got, pinnedMetrics["program/sp"])
	}
}
