// Package experiments regenerates every table and figure of the paper's
// characterization (§3) and evaluation (§5) sections. Each experiment is a
// named generator producing a text table; the spbench command and the
// repository's bench suite drive them.
package experiments

import (
	"fmt"
	"sync"

	"spcoh/internal/arch"
	"spcoh/internal/charac"
	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/runcfg"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/trace"
	"spcoh/internal/workload"
)

// Config scales the experiment workloads. It is the shared run
// configuration (see internal/runcfg); the sweep layer embeds the same
// struct in its jobs, so a cell's sizing flows through unconverted.
// MetricsEpoch semantics here: non-zero enables the run-time metrics
// collector on every measurement run; auxiliary passes (oracle profiling,
// trace capture) never collect.
type Config = runcfg.RunConfig

// Default is the full-size configuration used for EXPERIMENTS.md.
func Default() Config { return Config{Threads: 16, Scale: 1.0, Seed: 42} }

// Quick is a reduced configuration for smoke runs and -short benchmarks.
func Quick() Config { return Config{Threads: 16, Scale: 0.25, Seed: 42} }

// Kinds returns every configuration name understood by Runner.Run, in
// evaluation order.
func Kinds() []string {
	return []string{"dir", "bcast", "sp", "sp+filter", "sp512",
		"addr", "inst", "uni", "addr-small", "inst-small", "oracle"}
}

// EvalKinds returns the paper's §5 comparison set (the sweep run by
// spsweep's default matrix).
func EvalKinds() []string {
	return []string{"dir", "bcast", "sp", "sp+filter", "addr", "inst", "uni", "oracle"}
}

// Runner executes and caches simulation runs; experiments share results.
// It is safe for concurrent use: every cache key is computed exactly once
// (single-flight), and concurrent callers of an in-flight key block until
// the first computation finishes and then share its outcome.
type Runner struct {
	Cfg Config

	// Spec, when set, adds one scenario-spec workload: a bench name equal
	// to the spec's name resolves to the spec instead of a built-in
	// profile. Its program cache key is the spec's content digest, so two
	// distinct specs sharing a name (e.g. two "fuzz-1" variants across
	// runner instances) can never alias a cached program.
	Spec *scenario.Spec

	results  cache[*sim.Result]
	analyses cache[*charac.Analysis]
	programs cache[*workload.Program]
	books    cache[*core.OracleBook]
}

// NewRunner builds an empty cache over cfg.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

// cache is a concurrency-safe, single-flight memoization table. The first
// caller of a key runs fn while later callers wait on the same flight and
// share its result, so a simulation is never executed twice. A panic inside
// fn becomes the key's error: waiters never hang and callers get a
// diagnosable failure instead of a crashed process.
type cache[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

type flight[T any] struct {
	done sync.WaitGroup
	val  T
	err  error
}

func (c *cache[T]) do(key string, fn func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*flight[T])
	}
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		f.done.Wait()
		return f.val, f.err
	}
	f := new(flight[T])
	f.done.Add(1)
	c.m[key] = f
	c.mu.Unlock()
	defer f.done.Done()
	f.val, f.err = protect(key, fn)
	return f.val, f.err
}

// protect runs fn, converting a panic into a returned error.
func protect[T any](key string, fn func() (T, error)) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s: panic: %v", key, p)
		}
	}()
	return fn()
}

// options builds the sim options every pass of this runner shares: the
// machine sized to the configured thread count (the paper's 16-node mesh
// stays the default; other counts select the matching square mesh) and the
// fidelity mode.
func (r *Runner) options() (sim.Options, error) {
	opt := sim.DefaultOptions()
	if r.Cfg.Threads != opt.Machine.Nodes {
		m, err := protocol.ConfigFor(r.Cfg.Threads)
		if err != nil {
			return opt, fmt.Errorf("experiments: %w", err)
		}
		opt.Machine = m
	}
	opt.Mode = sim.Mode(r.Cfg.Mode)
	return opt, nil
}

func (r *Runner) program(bench string) (*workload.Program, error) {
	if r.Spec != nil && bench == r.Spec.Name {
		return r.programs.do("spec:"+r.Spec.Digest(), func() (*workload.Program, error) {
			return workload.FromSpec(r.Spec, r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
		})
	}
	return r.programs.do(bench, func() (*workload.Program, error) {
		prof, err := workload.ByName(bench)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return prof.Program(r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
	})
}

// predictorsFor builds the per-node predictor set for a configuration name.
func (r *Runner) predictorsFor(bench, kind string) ([]predictor.Predictor, error) {
	n := r.Cfg.Threads
	mk := func(f func(arch.NodeID) predictor.Predictor) []predictor.Predictor {
		preds := make([]predictor.Predictor, n)
		for i := range preds {
			preds[i] = f(arch.NodeID(i))
		}
		return preds
	}
	switch kind {
	case "dir", "bcast":
		return nil, nil
	case "sp":
		return core.NewSystem(core.DefaultConfig(n)), nil
	case "sp+filter":
		// §5.3 extension: a region snoop filter suppressing prediction
		// attempts on private data.
		preds := core.NewSystem(core.DefaultConfig(n))
		for i := range preds {
			preds[i] = predictor.NewRegionFilter(preds[i])
		}
		return preds, nil
	case "sp512":
		cfg := core.DefaultConfig(n)
		cfg.MaxEntries = 512
		return core.NewSystem(cfg), nil
	case "addr":
		return mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewAddr(id, n) }), nil
	case "inst":
		return mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewInst(id, n) }), nil
	case "uni":
		return mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewUni(id, n) }), nil
	case "addr-small":
		// ~0.5KB per node: the capacity wall sits ~8x lower than the
		// paper's 4KB because the synthetic working sets are ~8x smaller.
		return mk(func(id arch.NodeID) predictor.Predictor {
			cfg := predictor.DefaultAddrConfig(n)
			cfg.Entries = 64
			return predictor.NewGroup("ADDR-small", id, cfg)
		}), nil
	case "inst-small":
		return mk(func(id arch.NodeID) predictor.Predictor {
			cfg := predictor.DefaultInstConfig(n)
			cfg.Entries = 64
			return predictor.NewGroup("INST-small", id, cfg)
		}), nil
	case "oracle":
		b, err := r.book(bench)
		if err != nil {
			return nil, err
		}
		return core.OracleSystem(n, b), nil
	default:
		return nil, fmt.Errorf("experiments: unknown configuration %q", kind)
	}
}

// book runs (once) the oracle-recording profiling pass for a benchmark.
func (r *Runner) book(bench string) (*core.OracleBook, error) {
	return r.books.do(bench, func() (*core.OracleBook, error) {
		prog, err := r.program(bench)
		if err != nil {
			return nil, err
		}
		b := core.NewOracleBook()
		// The profiling pass runs at the same fidelity as the measurement
		// run: an oracle cell stays self-consistent within one mode.
		opt, err := r.options()
		if err != nil {
			return nil, err
		}
		opt.Predictors = core.RecorderSystem(core.DefaultConfig(r.Cfg.Threads), b)
		if _, err := sim.Run(prog, opt); err != nil {
			return nil, fmt.Errorf("experiments: oracle profiling %s: %w", bench, err)
		}
		return b, nil
	})
}

// Run executes (or recalls) one benchmark under one configuration.
func (r *Runner) Run(bench, kind string) (*sim.Result, error) {
	key := bench + "/" + kind
	return r.results.do(key, func() (*sim.Result, error) {
		prog, err := r.program(bench)
		if err != nil {
			return nil, err
		}
		opt, err := r.options()
		if err != nil {
			return nil, err
		}
		opt.MetricsEpoch = event.Time(r.Cfg.MetricsEpoch)
		if kind == "bcast" {
			opt.Protocol = sim.Broadcast
		} else {
			opt.Predictors, err = r.predictorsFor(bench, kind)
			if err != nil {
				return nil, err
			}
		}
		res, err := sim.Run(prog, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", key, err)
		}
		return res, nil
	})
}

// Analysis executes (or recalls) the trace-collection run for a benchmark
// and digests it (the paper's §3.2 methodology: a baseline-directory run
// with trace capture).
func (r *Runner) Analysis(bench string) (*charac.Analysis, error) {
	return r.analyses.do(bench, func() (*charac.Analysis, error) {
		prog, err := r.program(bench)
		if err != nil {
			return nil, err
		}
		col := &trace.Collector{}
		opt, err := r.options()
		if err != nil {
			return nil, err
		}
		// The §3.2 methodology is a detailed-fidelity trace run regardless of
		// the cell mode (as before the shared options helper).
		opt.Mode = ""
		opt.Tracer = col
		if _, err := sim.Run(prog, opt); err != nil {
			return nil, fmt.Errorf("experiments: trace %s: %w", bench, err)
		}
		return charac.Analyze(col.Events, r.Cfg.Threads), nil
	})
}

// RunCell executes one (bench, kind) simulation cell standalone: it builds
// the program, the predictor set (including the oracle profiling pass when
// kind is "oracle") and runs the simulation, sharing no state with any
// other cell. It is the executor behind internal/sweep jobs: because each
// cell is self-contained, cells parallelize trivially, and determinism of
// the simulator guarantees a cell's result depends only on (cfg, bench,
// kind).
func RunCell(cfg Config, bench, kind string) (*sim.Result, error) {
	return NewRunner(cfg).Run(bench, kind)
}

// RunSpecCell executes one simulation cell for a scenario spec, exactly as
// RunCell does for a built-in benchmark: self-contained, sharing no state
// with other cells, deterministic in (cfg, spec, kind).
func RunSpecCell(cfg Config, spec *scenario.Spec, kind string) (*sim.Result, error) {
	r := NewRunner(cfg)
	r.Spec = spec
	return r.Run(spec.Name, kind)
}

// Benchmarks returns the benchmark list in paper order.
func Benchmarks() []string { return workload.Names() }
