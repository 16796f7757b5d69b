// Command spsweep runs the paper's evaluation matrix — benchmark ×
// configuration × seed × scale — as independent simulation jobs on a
// bounded worker pool, checkpointing every completed cell into a resumable
// artifact store (see internal/sweep).
//
// Usage:
//
//	spsweep run    [-jobs N] [-bench all|none|a,b] [-kinds eval|all|a,b]
//	               [-specs a.json,b.json] [-seeds 42,43] [-scales 0.25]
//	               [-quick] [-threads 16] [-timeout 10m] [-retries 0]
//	               [-dir results/sweep] [-format table|csv|json]
//	               [-summary results/BENCH_sweep.json]
//	spsweep resume [-jobs N] [-timeout ...] [-retries ...] [-dir ...]
//	               [-format ...] [-summary ...]       # continue an interrupted sweep
//	spsweep status [-dir ...] | [-server URL [-sweep ID]]
//	                                                  # completion state; exits non-zero
//	                                                  # when any cell terminally failed
//	spsweep list   [matrix flags]                     # expanded jobs + digests
//	spsweep run     -server URL [matrix flags]        # submit to spsweepd, stream, merge
//	spsweep work    -server URL [-jobs N] [-drain]    # remote worker: lease/execute/push
//	spsweep results -server URL [-sweep ID]           # fetch a finished sweep's merge
//	spsweep xval    [matrix flags] [-jobs N] [-threshold 0.05]
//	                [-out results/BENCH_xval.json]    # detailed-vs-fast cross-validation
//
// Server commands take -token (default $SPSWEEPD_TOKEN) when the daemon
// requires bearer-token authentication.
//
// The merged output (stdout) is sorted by job key and byte-identical for
// any -jobs value — and, in server mode, for any worker count,
// distribution or server restart; timing and scheduling details go to
// stderr and the -summary file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"spcoh/internal/detutil"
	"spcoh/internal/experiments"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
	"spcoh/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "resume":
		err = cmdRun(os.Args[2:], true)
	case "status":
		err = cmdStatus(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "work":
		err = cmdWork(os.Args[2:])
	case "results":
		err = cmdResults(os.Args[2:])
	case "xval":
		err = cmdXval(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "spsweep: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsweep:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spsweep <run|resume|status|list|work|results|xval> [flags]

  run     execute a sweep matrix, checkpointing each finished job
          (-server URL submits it to a spsweepd daemon instead)
  resume  continue the interrupted sweep recorded in the store's manifest
  status  report completion state of a store or a spsweepd server;
          exits non-zero when any cell terminally failed
  list    print the expanded job matrix and digests
  work    serve a spsweepd daemon as a remote worker (lease/execute/push)
  results fetch a finished sweep's merged results from a spsweepd server
  xval    cross-validate: run a matrix in both detailed and fast mode and
          report the per-cell divergence (DESIGN.md §15)

Run 'spsweep <subcommand> -h' for flags.`)
}

// matrixFlags registers the matrix-shaping flags on fs.
type matrixFlags struct {
	bench, kinds, seeds, scales *string
	specs                       *string
	threads                     *int
	quick                       *bool
	metricsEpoch                *uint64
	mode                        *string
}

func addMatrixFlags(fs *flag.FlagSet) *matrixFlags {
	return &matrixFlags{
		bench:        fs.String("bench", "all", `benchmarks: "all", "none", or comma-separated names`),
		kinds:        fs.String("kinds", "eval", `configurations: "eval" (paper §5 set), "all", or comma-separated`),
		seeds:        fs.String("seeds", "42", "comma-separated workload build seeds"),
		scales:       fs.String("scales", "1.0", "comma-separated workload scale factors"),
		specs:        fs.String("specs", "", "comma-separated scenario spec files to sweep alongside the benchmarks"),
		threads:      fs.Int("threads", 16, "threads per workload (must match the machine's node count)"),
		quick:        fs.Bool("quick", false, "shorthand for -scales 0.25"),
		metricsEpoch: fs.Uint64("metrics-epoch", 0, "metrics sampling epoch in cycles for every cell (0 = no metrics)"),
		mode:         fs.String("mode", "detailed", "simulation fidelity for every cell: detailed|fast (DESIGN.md §15)"),
	}
}

func (m *matrixFlags) matrix() (sweep.Matrix, error) {
	benches := workload.Names()
	switch *m.bench {
	case "all":
	case "none":
		benches = nil
	default:
		benches = splitList(*m.bench)
		for _, b := range benches {
			if _, err := workload.ByName(b); err != nil {
				return sweep.Matrix{}, err
			}
		}
	}
	// Spec references resolve at flag-parse time: the digest computed here
	// is the cell identity, and execution re-verifies the file against it.
	var specRefs []sweep.SpecRef
	for _, path := range splitList(*m.specs) {
		s, err := scenario.Load(path)
		if err != nil {
			return sweep.Matrix{}, err
		}
		specRefs = append(specRefs, sweep.SpecRef{Name: s.Name, Path: path, Digest: s.Digest()})
	}
	if len(benches) == 0 && len(specRefs) == 0 {
		return sweep.Matrix{}, fmt.Errorf("empty matrix: no benchmarks and no specs")
	}
	var kinds []string
	switch *m.kinds {
	case "eval":
		kinds = experiments.EvalKinds()
	case "all":
		kinds = experiments.Kinds()
	default:
		kinds = splitList(*m.kinds)
		valid := make(map[string]bool)
		for _, k := range experiments.Kinds() {
			valid[k] = true
		}
		for _, k := range kinds {
			if !valid[k] {
				return sweep.Matrix{}, fmt.Errorf("unknown kind %q (have: %s)",
					k, strings.Join(experiments.Kinds(), ","))
			}
		}
	}
	var seeds []int64
	for _, s := range splitList(*m.seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return sweep.Matrix{}, fmt.Errorf("bad seed %q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	scales := *m.scales
	if *m.quick {
		scales = "0.25"
	}
	var scaleVals []float64
	for _, s := range splitList(scales) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			return sweep.Matrix{}, fmt.Errorf("bad scale %q", s)
		}
		scaleVals = append(scaleVals, v)
	}
	// "detailed" (the flag default) stores as "" so explicit and implicit
	// default spellings produce one matrix digest.
	md, err := sim.ParseMode(*m.mode)
	if err != nil {
		return sweep.Matrix{}, err
	}
	mode := ""
	if md == sim.ModeFast {
		mode = string(sim.ModeFast)
	}
	return sweep.Matrix{
		Benches:      benches,
		Specs:        specRefs,
		Kinds:        kinds,
		Seeds:        seeds,
		Scales:       scaleVals,
		Threads:      *m.threads,
		MetricsEpoch: *m.metricsEpoch,
		Mode:         mode,
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runCell is the production executor: one self-contained simulation per
// job (experiments.RunCell shares no state between cells). Spec cells
// reload their file and verify it still hashes to the digest recorded in
// the job identity, so a spec edited after matrix assembly fails loudly
// instead of silently mislabeling an artifact.
func runCell(j sweep.Job) (*sim.Result, error) {
	if j.SpecDigest == "" {
		return experiments.RunCell(j.RunConfig, j.Bench, j.Kind)
	}
	s, err := scenario.Load(j.SpecPath)
	if err != nil {
		return nil, err
	}
	if d := s.Digest(); d != j.SpecDigest {
		return nil, fmt.Errorf("spec %s changed since the sweep was assembled (digest %.12s, job wants %.12s); rerun 'spsweep run'",
			j.SpecPath, d, j.SpecDigest)
	}
	return experiments.RunSpecCell(j.RunConfig, s, j.Kind)
}

func cmdRun(args []string, resume bool) error {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet("spsweep "+name, flag.ExitOnError)
	var mf *matrixFlags
	var server, token *string
	if !resume {
		mf = addMatrixFlags(fs)
		server = fs.String("server", "", "submit to this spsweepd base URL instead of running locally")
		token = serverTokenFlag(fs)
	}
	jobs := fs.Int("jobs", runtime.NumCPU(), "worker pool size")
	timeout := fs.Duration("timeout", 0, "per-attempt wall-clock timeout (0 = none)")
	retries := fs.Int("retries", 0, "additional attempts after a failed one")
	backoff := fs.Duration("backoff", 0, "base delay before retry attempts, jittered (0 = none)")
	backoffSeed := fs.Int64("backoff-seed", 0, "seed for the retry jitter")
	dir := fs.String("dir", "results/sweep", "artifact store directory")
	format := fs.String("format", "table", "merged output format: table|csv|json")
	summary := fs.String("summary", "results/BENCH_sweep.json", `summary JSON path ("" disables)`)
	fs.Parse(args)

	if !resume && *server != "" {
		matrix, err := mf.matrix()
		if err != nil {
			return err
		}
		ctx, stop := signalContext()
		defer stop()
		return serverRun(ctx, *server, *token, matrix, *format)
	}

	store, err := sweep.Open(*dir)
	if err != nil {
		return err
	}
	var matrix sweep.Matrix
	if resume {
		if !store.HasManifestFile() {
			return fmt.Errorf("resume: no sweep recorded in %s (run 'spsweep run' first)", *dir)
		}
		m, ok := store.Matrix()
		if !ok {
			return fmt.Errorf("resume: manifest in %s has no matrix", *dir)
		}
		matrix = m
	} else {
		matrix, err = mf.matrix()
		if err != nil {
			return err
		}
		if err := store.SetMatrix(matrix); err != nil {
			return err
		}
	}
	allJobs := matrix.Jobs()
	fmt.Fprintf(os.Stderr, "spsweep: %s: %d jobs (%d benches x %d kinds x %d seeds x %d scales) on %d workers\n",
		name, len(allJobs), len(matrix.Benches), len(matrix.Kinds), len(matrix.Seeds), len(matrix.Scales), *jobs)

	// SIGINT/SIGTERM stop the sweep after in-flight jobs; completed cells
	// are already checkpointed, so 'spsweep resume' picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := 0
	opt := sweep.Options{
		Workers:     *jobs,
		Timeout:     *timeout,
		Retries:     *retries,
		Backoff:     *backoff,
		BackoffSeed: *backoffSeed,
		Store:       store,
		Progress: func(jr sweep.JobResult) {
			done++
			state := "ok"
			switch {
			case jr.Err != nil:
				state = "FAIL: " + jr.Err.Error()
			case jr.Cached:
				state = "cached"
			}
			fmt.Fprintf(os.Stderr, "spsweep: [%d/%d] %-40s %6.1fs  %s\n",
				done, len(allJobs), jr.Job.Key(), jr.Wall.Seconds(), state)
		},
	}
	rep := sweep.Run(ctx, allJobs, runCell, opt)

	switch *format {
	case "table":
		rep.FormatTable(os.Stdout)
	case "csv":
		if err := rep.FormatCSV(os.Stdout); err != nil {
			return err
		}
	case "json":
		if err := rep.FormatJSON(os.Stdout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q (table|csv|json)", *format)
	}

	if *summary != "" {
		if err := sweep.WriteSummary(*summary, rep.Summarize(matrix, *jobs)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spsweep: summary written to %s\n", *summary)
	}
	fmt.Fprintf(os.Stderr, "spsweep: %d jobs: %d cached, %d executed, %d failed in %.1fs\n",
		len(allJobs), rep.Cached, rep.Executed, rep.Failed, rep.Wall.Seconds())
	if rep.Failed > 0 {
		return fmt.Errorf("%d job(s) failed", rep.Failed)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted; completed cells are checkpointed, 'spsweep resume -dir %s' continues", *dir)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("spsweep status", flag.ExitOnError)
	dir := fs.String("dir", "results/sweep", "artifact store directory")
	server := fs.String("server", "", "query this spsweepd base URL instead of a local store")
	token := serverTokenFlag(fs)
	sweepID := fs.String("sweep", "", "with -server: show one sweep's jobs")
	verbose := fs.Bool("v", false, "list pending job keys (with -server: done jobs too)")
	fs.Parse(args)

	if *server != "" {
		return serverStatus(*server, *token, *sweepID, *verbose)
	}

	store, err := sweep.Open(*dir)
	if err != nil {
		return err
	}
	if !store.HasManifestFile() {
		return fmt.Errorf("no sweep recorded in %s", *dir)
	}
	matrix, ok := store.Matrix()
	if !ok {
		return fmt.Errorf("manifest in %s has no matrix", *dir)
	}
	var complete, pending int
	var pendingKeys []string
	for _, j := range matrix.Jobs() {
		if _, ok := store.Lookup(j); ok {
			complete++
		} else {
			pending++
			pendingKeys = append(pendingKeys, j.Key())
		}
	}
	total := complete + pending
	fmt.Printf("store:    %s\n", *dir)
	fmt.Printf("matrix:   %s\n", matrix.Digest()[:16])
	fmt.Printf("jobs:     %d/%d complete, %d pending\n", complete, total, pending)
	if *verbose {
		for _, k := range pendingKeys {
			fmt.Printf("pending:  %s\n", k)
		}
	}
	if pending > 0 {
		fmt.Printf("hint:     spsweep resume -dir %s\n", *dir)
	}
	// The failure ledger gates the exit code: cells that exhausted their
	// attempts make status fail, so CI distinguishes "interrupted, resume
	// will finish" (exit 0 with pending jobs) from "broken" (exit 1).
	if failed := store.FailedCells(); len(failed) > 0 {
		for _, k := range detutil.SortedKeys(failed) {
			fmt.Printf("failed:   %-48s %s\n", k, failed[k])
		}
		return fmt.Errorf("%d job(s) terminally failed", len(failed))
	}
	return nil
}

// newFlagSet builds a flag set with the conventional error mode.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// signalContext is the conventional SIGINT/SIGTERM run context.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("spsweep list", flag.ExitOnError)
	mf := addMatrixFlags(fs)
	fs.Parse(args)

	matrix, err := mf.matrix()
	if err != nil {
		return err
	}
	jobs := matrix.Jobs()
	for _, j := range jobs {
		fmt.Printf("%-48s %s\n", j.Key(), j.Digest()[:16])
	}
	fmt.Fprintf(os.Stderr, "spsweep: %d jobs, matrix %s\n", len(jobs), matrix.Digest()[:16])
	return nil
}
