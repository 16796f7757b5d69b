package sweep_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spcoh/internal/experiments"
	"spcoh/internal/sweep"
)

// pinnedRenderings holds the SHA-256 of each merged-output rendering of a
// two-benchmark sweep over every configuration kind at scale 0.05. The
// digests were captured before the run-configuration table was unified.
var pinnedRenderings = map[string]string{
	"table": "3b9dc9d9a6d81b607daf572d88dd51c1ceab3e9c51d39c71ac8e1011bc32a0ec",
	"csv":   "8df9dc0c43195ba9b98eaebe93f5844fb0d2105178f8fe63ba562d3c0638671f",
	"json":  "27dcdad846c178a5cd1bb53dd4a1c3f40e724d42d0264c13f9163d75b896611c",
}

func TestPinnedRenderings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; skipped with -short")
	}
	m := sweep.Matrix{
		Benches: []string{"x264", "streamcluster"},
		Kinds:   experiments.Kinds(),
		Seeds:   []int64{42},
		Scales:  []float64{0.05},
		Threads: 16,
	}
	rep := sweep.Run(context.Background(), m.Jobs(), realCell, sweep.Options{Workers: 2})
	if rep.Failed != 0 {
		t.Fatalf("%d cells failed", rep.Failed)
	}
	var table, csv, js bytes.Buffer
	rep.FormatTable(&table)
	if err := rep.FormatCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rep.FormatJSON(&js); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"table": table.Bytes(), "csv": csv.Bytes(), "json": js.Bytes()} {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != pinnedRenderings[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, pinnedRenderings[name])
		}
	}
}
