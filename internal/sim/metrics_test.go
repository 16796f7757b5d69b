package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/metrics"
)

func runWithMetrics(t *testing.T, bench string, kind ProtocolKind, withSP bool, epoch uint64, seed int64) *Result {
	t.Helper()
	prog := buildProgram(t, bench, 16, 0.05, seed)
	opt := DefaultOptions()
	opt.Protocol = kind
	if withSP && kind == Directory {
		opt.Predictors = core.NewSystem(core.DefaultConfig(16))
	}
	opt.MetricsEpoch = event.Time(epoch)
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsSeriesDeterministic asserts the ISSUE 4 acceptance criterion:
// a 16-core run with metrics enabled produces a byte-identical JSON
// time-series across two same-seed runs, and the series actually covers
// link utilization, per-class latency histograms, and the predictor
// accuracy timeline.
func TestMetricsSeriesDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		kind   ProtocolKind
		withSP bool
	}{
		{"directory-sp", Directory, true},
		{"broadcast", Broadcast, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := runWithMetrics(t, "radiosity", tc.kind, tc.withSP, 1000, 42)
			b := runWithMetrics(t, "radiosity", tc.kind, tc.withSP, 1000, 42)
			if a.Metrics == nil || b.Metrics == nil {
				t.Fatal("MetricsEpoch set but no series collected")
			}
			if err := a.Metrics.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			var bufA, bufB bytes.Buffer
			if err := a.Metrics.WriteJSON(&bufA); err != nil {
				t.Fatal(err)
			}
			if err := b.Metrics.WriteJSON(&bufB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
				t.Fatalf("same seed, different metrics series (len %d vs %d)",
					bufA.Len(), bufB.Len())
			}

			var busy, req, resp, misses, predicted uint64
			for i := range a.Metrics.Epochs {
				e := &a.Metrics.Epochs[i]
				for _, v := range e.LinkBusy {
					busy += v
				}
				req += e.ClassCount[metrics.ClassRequest]
				resp += e.ClassCount[metrics.ClassResponse]
				misses += e.Misses
				predicted += e.Predicted
			}
			if busy == 0 {
				t.Error("series shows no link utilization")
			}
			if req == 0 || resp == 0 {
				t.Errorf("series shows no class traffic: req=%d resp=%d", req, resp)
			}
			if misses == 0 {
				t.Error("series shows no misses")
			}
			if misses != a.Misses() {
				t.Errorf("series misses = %d, Result misses = %d", misses, a.Misses())
			}
			if tc.withSP && predicted == 0 {
				t.Error("SP run shows no predictor timeline")
			}
			if uint64(a.Cycles) != a.Metrics.Cycles {
				t.Errorf("series cycles = %d, Result cycles = %d", a.Metrics.Cycles, a.Cycles)
			}
		})
	}
}

// TestMetricsDoesNotPerturbSimulation asserts the collector is a pure
// observer: a run with metrics enabled produces exactly the same Result
// (cycles, stats, energy) as the same run without.
func TestMetricsDoesNotPerturbSimulation(t *testing.T) {
	for _, kind := range []ProtocolKind{Directory, Broadcast} {
		off := runWithMetrics(t, "dedup", kind, kind == Directory, 0, 7)
		on := runWithMetrics(t, "dedup", kind, kind == Directory, 256, 7)
		if off.Metrics != nil {
			t.Fatal("metrics collected with MetricsEpoch=0")
		}
		if on.Metrics == nil {
			t.Fatal("no metrics collected with MetricsEpoch=256")
		}
		on.Metrics = nil
		a, b := fmt.Sprintf("%+v", *off), fmt.Sprintf("%+v", *on)
		if a != b {
			t.Fatalf("kind %v: metrics perturbed the simulation:\noff: %s\non:  %s", kind, a, b)
		}
	}
}

// TestMetricsSeriesPinned pins the detailed-mode metrics series of x264
// (scale 0.05, seed 42, 2000-cycle epochs) under dir, sp and bcast: every
// protocol hook feeds these bytes, so a hook that moves, drops or
// reclassifies an observation shows up here.
func TestMetricsSeriesPinned(t *testing.T) {
	cases := []struct {
		name   string
		kind   ProtocolKind
		withSP bool
		want   string
	}{
		{"dir", Directory, false, "3d79ccc5975a607b3ccaf8a1b3b857fd0e01d9fb1384c92a2c9b9a7e1e880835"},
		{"sp", Directory, true, "67a1936f5a1b21e3d7f7cb9863207c01350e63184a3a7d92612a79b0a8599ea4"},
		{"bcast", Broadcast, false, "0b0f77d9620a038f3245d9823a06fdae9f875b3cf7418cfcbee955d6edccff23"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runWithMetrics(t, "x264", tc.kind, tc.withSP, 2000, 42)
			var buf bytes.Buffer
			if err := res.Metrics.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Fatalf("x264 %s series: %d bytes, sha256 %s, want %s", tc.name, buf.Len(), got, tc.want)
			}
		})
	}
}
