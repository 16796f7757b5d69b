package sim

// Fast functional mode (DESIGN.md §15): same-seed byte-determinism, and
// count-exactness against the detailed model on benchmarks whose
// interleaving is not timing-sensitive. The benchmarks pinned exact here
// are structurally timing-independent at the tested scale (no lock
// hand-off whose winner depends on miss latency); timing-sensitive ones
// (facesim, dedup, ...) drift by a fraction of a percent and are not
// gated. Fast mode has no command-line entry point; it stays only for the
// sweep-fast-server perfbench workload (DESIGN.md §15).

import (
	"fmt"
	"testing"

	"spcoh/internal/core"
)

func runMode(t *testing.T, bench string, mode Mode, scale float64) *Result {
	t.Helper()
	prog := buildProgram(t, bench, 16, scale, 42)
	opt := DefaultOptions()
	opt.Mode = mode
	opt.Predictors = core.NewSystem(core.DefaultConfig(16))
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastModeDeterminism: two fast-mode runs of the same seed must agree
// on every observable field — the fast path schedules through the cascade
// clock, and nothing about it may depend on host state.
func TestFastModeDeterminism(t *testing.T) {
	for _, bench := range []string{"ocean", "fft", "streamcluster"} {
		a := fmt.Sprintf("%+v", *runMode(t, bench, ModeFast, 0.05))
		b := fmt.Sprintf("%+v", *runMode(t, bench, ModeFast, 0.05))
		if a != b {
			t.Errorf("%s: same-seed fast runs differ:\n%s\nvs\n%s", bench, a, b)
		}
	}
}

// TestFastModeCountExact: on timing-insensitive benchmarks the fast model
// must reproduce the detailed model's miss decomposition, prediction
// outcomes, snoop lookups and injected traffic exactly — only cycle
// counts may differ (contention is approximated away).
func TestFastModeCountExact(t *testing.T) {
	benches := []string{"ocean", "radix", "water-sp", "bodytrack", "x264"}
	if testing.Short() {
		benches = benches[:2]
	}
	for _, bench := range benches {
		d := runMode(t, bench, ModeDetailed, 0.1)
		f := runMode(t, bench, ModeFast, 0.1)
		type cmp struct {
			name string
			d, f uint64
		}
		for _, c := range []cmp{
			{"misses", d.Nodes.Misses, f.Nodes.Misses},
			{"communicating", d.Nodes.Communicating, f.Nodes.Communicating},
			{"predicted", d.Nodes.Predicted, f.Nodes.Predicted},
			{"pred-correct", d.Nodes.PredCorrect, f.Nodes.PredCorrect},
			{"snoop-lookups", d.Nodes.SnoopLookups, f.Nodes.SnoopLookups},
			{"net-packets", d.Net.Packets, f.Net.Packets},
			{"net-bytes", d.Net.Bytes, f.Net.Bytes},
		} {
			if c.d != c.f {
				t.Errorf("%s: %s diverged: detailed %d, fast %d", bench, c.name, c.d, c.f)
			}
		}
		if d.Cycles == f.Cycles {
			// Not wrong per se, but suspicious: the fast timing model should
			// produce different (contention-free) cycle counts. Equal cycles
			// on a communicating benchmark suggests the mode didn't engage.
			t.Errorf("%s: fast and detailed report identical cycles (%d); is fast mode active?", bench, d.Cycles)
		}
		if f.Mode != ModeFast {
			t.Errorf("%s: fast result does not record its mode (got %q)", bench, f.Mode)
		}
	}
}

// TestFastModeFasterOrEqualEvents: the fast path must fire fewer engine
// events than the detailed one (hop-by-hop link events are collapsed into
// cascade arithmetic) — that reduction is where its speed comes from.
func TestFastModeFewerEvents(t *testing.T) {
	d := runMode(t, "ocean", ModeDetailed, 0.1)
	f := runMode(t, "ocean", ModeFast, 0.1)
	if f.Events >= d.Events {
		t.Errorf("fast mode fired %d events, detailed %d; expected a reduction", f.Events, d.Events)
	}
}
