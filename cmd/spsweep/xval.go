package main

// spsweep xval: cross-validate the fast functional model against the
// detailed cycle-level model (DESIGN.md §15). The matrix is swept twice —
// once per fidelity — through the normal sweep engine and store (the two
// fidelities are distinct cells, so both checkpoint and resume), then the
// paired reports become a per-cell divergence report: cycles ratio,
// prediction-accuracy delta, traffic delta, and whether the counts fast
// mode keeps exact actually matched. Cells diverging beyond -threshold
// are listed for detailed-mode escalation.
//
// The report (stdout table + -out JSON) is deterministic for any -jobs
// value; the wall-clock timing/speedup section is machine-dependent and
// can be omitted with -no-timing for byte-comparison across runs.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"spcoh/internal/sweep"
)

func cmdXval(args []string) error {
	fs := newFlagSet("spsweep xval")
	mf := addMatrixFlags(fs)
	jobs := fs.Int("jobs", runtime.NumCPU(), "worker pool size")
	timeout := fs.Duration("timeout", 0, "per-attempt wall-clock timeout (0 = none)")
	dir := fs.String("dir", "results/sweep", "artifact store directory")
	out := fs.String("out", "results/BENCH_xval.json", `divergence report JSON path ("" disables)`)
	threshold := fs.Float64("threshold", 0.05, "relative divergence above which a cell is escalated")
	escalate := fs.Bool("escalate", false, "rerun escalated cells in detailed mode and fold the authoritative numbers into the report")
	noTiming := fs.Bool("no-timing", false, "omit the machine-dependent timing section (byte-stable output)")
	fs.Parse(args)

	matrix, err := mf.matrix()
	if err != nil {
		return err
	}
	if matrix.Mode != "" {
		return fmt.Errorf("xval: do not set -mode; xval runs both fidelities itself")
	}
	if *threshold <= 0 {
		return fmt.Errorf("xval: threshold %g must be > 0", *threshold)
	}
	store, err := sweep.Open(*dir)
	if err != nil {
		return err
	}

	ctx, stop := signalContext()
	defer stop()

	detailed := matrix
	fast := matrix
	fast.Mode = "fast"
	detRep, err := xvalSweep(ctx, "detailed", detailed.Jobs(), store, *jobs, *timeout)
	if err != nil {
		return err
	}
	fastRep, err := xvalSweep(ctx, "fast", fast.Jobs(), store, *jobs, *timeout)
	if err != nil {
		return err
	}

	rep := sweep.Xval(detRep, fastRep, *threshold)
	rep.Matrix = detailed.Digest()
	if !*noTiming {
		rep.Timing = sweep.XvalTimingFrom(detRep, fastRep)
	}
	if *escalate && len(rep.Escalations) > 0 {
		// Rerun the over-threshold cells in detailed mode through the same
		// engine and store — already-checkpointed cells recall instantly,
		// failed cells get a genuine retry — and fold the authoritative
		// detailed numbers into the report.
		want := make(map[string]bool, len(rep.Escalations))
		for _, k := range rep.Escalations {
			want[k] = true
		}
		var cells []sweep.Job
		for _, j := range detailed.Jobs() {
			if want[j.Key()] {
				cells = append(cells, j)
			}
		}
		escRep, err := xvalSweep(ctx, "escalate", cells, store, *jobs, *timeout)
		if err != nil {
			return err
		}
		rep.FoldEscalations(escRep)
	}
	rep.FormatTable(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rep.FormatJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsweep: xval report written to %s\n", *out)
	}
	if failed := detRep.Failed + fastRep.Failed; failed > 0 {
		return fmt.Errorf("xval: %d cell(s) failed", failed)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("xval: interrupted; completed cells are checkpointed in %s", *dir)
	}
	return nil
}

// xvalSweep runs one pass of the cross-validation (a fidelity's half, or
// the escalation rerun) through the shared engine and store.
func xvalSweep(ctx context.Context, label string, cells []sweep.Job, store *sweep.Store, jobs int, timeout time.Duration) (*sweep.Report, error) {
	fmt.Fprintf(os.Stderr, "spsweep: xval %s pass: %d jobs on %d workers\n", label, len(cells), jobs)
	done := 0
	opt := sweep.Options{
		Workers: jobs,
		Timeout: timeout,
		Store:   store,
		Progress: func(jr sweep.JobResult) {
			done++
			state := "ok"
			switch {
			case jr.Err != nil:
				state = "FAIL: " + jr.Err.Error()
			case jr.Cached:
				state = "cached"
			}
			fmt.Fprintf(os.Stderr, "spsweep: xval %s [%d/%d] %-40s %6.1fs  %s\n",
				label, done, len(cells), jr.Job.Key(), jr.Wall.Seconds(), state)
		},
	}
	return sweep.Run(ctx, cells, runCell, opt), nil
}
