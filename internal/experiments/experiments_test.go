package experiments

import (
	"strings"
	"sync"
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
)

func tinyRunner() *Runner {
	return NewRunner(runcfg.RunConfig{Threads: 16, Scale: 0.05, Seed: 7})
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("experiments = %d, want 14", len(all))
	}
	want := []string{"table1", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
		"table5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order: got %s at %d, want %s", e.ID, i, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := tinyRunner()
	a, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runner must cache results")
	}
	a1, err := r.Analysis("x264")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Analysis("x264")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("runner must cache analyses")
	}
}

// TestRunnerErrors: failures surface as errors, never as panics, and a
// failed key stays failed on recall.
func TestRunnerErrors(t *testing.T) {
	r := tinyRunner()
	if _, err := r.Run("no-such-bench", "dir"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := r.Run("x264", "no-such-kind"); err == nil {
		t.Fatal("unknown configuration must error")
	}
	if _, err := r.Analysis("no-such-bench"); err == nil {
		t.Fatal("unknown benchmark analysis must error")
	}
	// Recall of a failed key returns the cached error.
	if _, err := r.Run("x264", "no-such-kind"); err == nil ||
		!strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("cached error lost: %v", err)
	}
}

// TestRunnerSingleFlightPanic: a panicking computation becomes an error for
// every waiter; nothing deadlocks or crashes.
func TestRunnerSingleFlightPanic(t *testing.T) {
	var c cache[int]
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.do("boom", func() (int, error) { panic("kaboom") })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("caller %d: err = %v, want panic converted to error", i, err)
		}
	}
}

// TestRunnerConcurrent hammers one Runner from many goroutines: the
// single-flight cache must hand every caller the same result pointer
// (i.e. each simulation ran exactly once) without data races.
func TestRunnerConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*sim.Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := "dir"
			if i%2 == 1 {
				kind = "sp"
			}
			results[i], errs[i] = r.Run("x264", kind)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[i%2] {
			t.Fatalf("caller %d got a different pointer than caller %d: single-flight broken", i, i%2)
		}
	}
}

func TestCharacterizationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	for _, id := range []string{"table1", "fig1", "fig5"} {
		e, _ := ByID(id)
		tab, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := tab.String()
		if !strings.Contains(out, "x264") || !strings.Contains(out, "fmm") {
			t.Fatalf("%s missing benchmarks:\n%s", id, out)
		}
	}
}

func TestEvaluationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	for _, id := range []string{"fig8", "fig9", "table5"} {
		e, _ := ByID(id)
		tab, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := tab.String()
		if !strings.Contains(out, "average") && id != "table5" {
			t.Fatalf("%s missing average row:\n%s", id, out)
		}
	}
	// Normalized latencies must be sensible.
	spRes, err := r.Run("x264", "sp")
	if err != nil {
		t.Fatal(err)
	}
	dirRes, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	fig8 := spRes.AvgMissLatency() / dirRes.AvgMissLatency()
	if fig8 <= 0 || fig8 > 1.5 {
		t.Fatalf("sp/dir latency ratio implausible: %v", fig8)
	}
}

func TestTradeoffPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	x, y, err := tradeoffPoint(r, "x264", "sp")
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || y < 0 || y > 100 {
		t.Fatalf("tradeoff point out of range: %v %v", x, y)
	}
	// The directory reference point is (0, 100) by construction.
	if _, yDir, err := tradeoffPoint(r, "x264", "dir"); err != nil || yDir != 100 {
		t.Fatalf("directory y = %v (err %v), want 100", yDir, err)
	}
}

// TestKindsMatchRunner: every advertised kind must be accepted by the
// configuration table (the sweep CLI validates against this list), and
// nothing else may be.
func TestKindsMatchRunner(t *testing.T) {
	cfg := tinyRunner().Cfg
	for _, k := range Kinds() {
		if _, err := SimOptions(cfg, k, core.NewOracleBook()); err != nil {
			t.Errorf("kind %q rejected: %v", k, err)
		}
	}
	if _, err := SimOptions(cfg, "bogus", nil); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := SimOptions(cfg, "oracle", nil); err == nil {
		t.Error("oracle accepted without a profiling pass")
	}
	if _, err := SimOptions(runcfg.RunConfig{Threads: 12}, "dir", nil); err == nil {
		t.Error("12 threads accepted")
	}
	eval := EvalKinds()
	all := Kinds()
	for _, k := range eval {
		found := false
		for _, a := range all {
			if a == k {
				found = true
			}
		}
		if !found {
			t.Errorf("EvalKinds %q missing from Kinds", k)
		}
	}
}
