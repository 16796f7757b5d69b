package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spcoh/internal/experiments"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// coreCell is one timed full-system configuration.
type coreCell struct {
	Bench string `json:"bench"`
	Kind  string `json:"kind"` // dir | sp | bcast

	SimCycles    uint64  `json:"sim_cycles"`
	Events       uint64  `json:"events"`
	WallNanos    int64   `json:"wall_nanos"` // best of the timed runs
	CyclesPerSec float64 `json:"cycles_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// coreRecord is one measurement pass over every cell.
type coreRecord struct {
	When         string     `json:"when,omitempty"` // RFC 3339, recorded at measurement time
	Runs         int        `json:"runs"`
	Scale        float64    `json:"scale"`
	Seed         int64      `json:"seed"`
	Cells        []coreCell `json:"cells"`
	CyclesPerSec float64    `json:"cycles_per_sec"` // aggregate: Σcycles / Σwall
}

// coreFile is the perf record results/BENCH_core.json holds. The baseline
// is written once (first invocation on the pre-optimization tree) and
// preserved by every later refresh, so the speedup is always measured
// against the same fixed point. History accumulates one record per
// invocation (oldest first), so the file carries the repository's
// performance trajectory instead of only its endpoints.
type coreFile struct {
	Baseline *coreRecord  `json:"baseline"`
	History  []coreRecord `json:"history,omitempty"`
}

// coreHistoryCap bounds the trend record; the oldest entries roll off
// (the baseline is kept separately and never rolls).
const coreHistoryCap = 200

// coreCells is the fixed measurement matrix: the baseline directory
// protocol, the paper's SP-predictor configuration (the headline cell the
// acceptance bar gates on), and the broadcast comparison protocol.
var coreCells = []struct{ bench, kind string }{
	{"ocean", "dir"},
	{"ocean", "sp"},
	{"streamcluster", "bcast"},
}

// measureCell times runs repetitions of one cell and keeps the fastest
// (wall noise only ever slows a run down).
func measureCell(bench, kind string, runs int, scale float64, seed int64) (coreCell, error) {
	p, ok := workload.Builtin().Lookup(bench)
	if !ok {
		return coreCell{}, fmt.Errorf("core-bench: unknown benchmark %q", bench)
	}
	cfg := runcfg.RunConfig{Threads: 16, Scale: scale, Seed: seed}
	prog, err := p.Program(cfg.Threads, cfg.Scale, cfg.Seed)
	if err != nil {
		return coreCell{}, err
	}
	cell := coreCell{Bench: bench, Kind: kind}
	for i := 0; i < runs; i++ {
		opt, err := experiments.SimOptions(cfg, kind, nil)
		if err != nil {
			return coreCell{}, fmt.Errorf("core-bench: %w", err)
		}
		start := time.Now()
		res, err := sim.Run(prog, opt)
		wall := time.Since(start)
		if err != nil {
			return coreCell{}, fmt.Errorf("core-bench %s/%s: %w", bench, kind, err)
		}
		if cell.WallNanos == 0 || wall.Nanoseconds() < cell.WallNanos {
			cell.WallNanos = wall.Nanoseconds()
			cell.SimCycles = uint64(res.Cycles)
			cell.Events = res.Events
		}
	}
	secs := float64(cell.WallNanos) / 1e9
	cell.CyclesPerSec = float64(cell.SimCycles) / secs
	cell.EventsPerSec = float64(cell.Events) / secs
	return cell, nil
}

// rollingGateWindow is how many recent history records the regression
// gate's rolling baseline spans, and rollingGateMin is the history depth
// below which the gate stays silent (too little signal to call a trend).
const (
	rollingGateWindow = 5
	rollingGateMin    = 3
)

// rollingBaseline returns the median aggregate cycles/s of the most
// recent records (up to rollingGateWindow) and how many records fed it.
// A median over several runs absorbs the one-off slow box or noisy
// neighbor a single before/after comparison would trip on.
func rollingBaseline(hist []coreRecord) (float64, int) {
	n := len(hist)
	if n > rollingGateWindow {
		hist = hist[n-rollingGateWindow:]
	}
	vals := make([]float64, len(hist))
	for i, r := range hist {
		vals[i] = r.CyclesPerSec
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 0, 0
	}
	m := len(vals) / 2
	med := vals[m]
	if len(vals)%2 == 0 {
		med = (vals[m-1] + vals[m]) / 2
	}
	return med, len(vals)
}

func runCoreBench(out string, runs int, scale float64, seed int64, gatePct float64) error {
	if runs < 1 {
		runs = 1
	}
	rec := &coreRecord{Runs: runs, Scale: scale, Seed: seed}
	var totCycles uint64
	var totNanos int64
	for _, c := range coreCells {
		cell, err := measureCell(c.bench, c.kind, runs, scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "core-bench: %-14s %-5s %12d cycles  %8.1fms  %14.0f cycles/s\n",
			cell.Bench, cell.Kind, cell.SimCycles, float64(cell.WallNanos)/1e6, cell.CyclesPerSec)
		rec.Cells = append(rec.Cells, cell)
		totCycles += cell.SimCycles
		totNanos += cell.WallNanos
	}
	rec.CyclesPerSec = float64(totCycles) / (float64(totNanos) / 1e9)
	rec.When = time.Now().UTC().Format(time.RFC3339)

	file := &coreFile{}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, file); err != nil {
			return fmt.Errorf("core-bench: corrupt %s: %w (delete it to re-baseline)", out, err)
		}
	}
	if file.Baseline == nil {
		file.Baseline = rec
	}
	// The regression gate compares this run against the rolling baseline
	// of the history BEFORE it — the new record must not vote on its own
	// acceptability.
	rollBase, rollN := rollingBaseline(file.History)
	file.History = append(file.History, *rec)
	if n := len(file.History); n > coreHistoryCap {
		file.History = append(file.History[:0], file.History[n-coreHistoryCap:]...)
	}
	fmt.Fprintf(os.Stderr, "core-bench: aggregate %.0f cycles/s (%.2fx vs baseline %.0f, %d records)\n",
		rec.CyclesPerSec, rec.CyclesPerSec/file.Baseline.CyclesPerSec, file.Baseline.CyclesPerSec, len(file.History))

	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	// Gate last, after the record is on disk: a failing run still joins
	// the history, so the trend stays honest and the next investigation
	// has the data point. The threshold must stay generous — wall time on
	// shared boxes is noisy even under a median — and the gate only
	// speaks once the history is deep enough to define a trend.
	if gatePct > 0 && rollN >= rollingGateMin {
		floor := rollBase * (1 - gatePct/100)
		if rec.CyclesPerSec < floor {
			return fmt.Errorf(
				"core-bench: aggregate %.0f cycles/s is %.1f%% below the rolling baseline %.0f (median of last %d runs); the -core-gate threshold is %g%%",
				rec.CyclesPerSec, 100*(1-rec.CyclesPerSec/rollBase), rollBase, rollN, gatePct)
		}
		fmt.Fprintf(os.Stderr, "core-bench: regression gate ok: %.0f cycles/s vs rolling baseline %.0f (median of %d, -%g%% floor %.0f)\n",
			rec.CyclesPerSec, rollBase, rollN, gatePct, floor)
	}
	return nil
}
