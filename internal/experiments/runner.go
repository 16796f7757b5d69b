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

// Default is the full-size configuration used for EXPERIMENTS.md.
func Default() runcfg.RunConfig { return runcfg.RunConfig{Threads: 16, Scale: 1.0, Seed: 42} }

// Quick is a reduced configuration for smoke runs and -short benchmarks.
func Quick() runcfg.RunConfig { return runcfg.RunConfig{Threads: 16, Scale: 0.25, Seed: 42} }

// Kinds returns every configuration name understood by SimOptions and
// Runner.Run, in evaluation order.
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
//
// MetricsEpoch in Cfg enables the run-time metrics collector on every
// measurement run; auxiliary passes (oracle profiling, trace capture)
// never collect.
type Runner struct {
	Cfg runcfg.RunConfig

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
func NewRunner(cfg runcfg.RunConfig) *Runner { return &Runner{Cfg: cfg} }

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

func (r *Runner) program(bench string) (*workload.Program, error) {
	if r.Spec != nil && bench == r.Spec.Name {
		return r.programs.do("spec:"+r.Spec.Digest(), func() (*workload.Program, error) {
			return workload.FromSpec(r.Spec, r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
		})
	}
	return r.programs.do(bench, func() (*workload.Program, error) {
		prof, ok := workload.Builtin().Lookup(bench)
		if !ok {
			return nil, fmt.Errorf("experiments: workload: unknown benchmark %q", bench)
		}
		return prof.Program(r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
	})
}

// SimOptions is the one configuration table: it turns a run configuration
// and a configuration name (one of Kinds) into the options of one
// simulation. The machine is the paper's CMP sized to cfg.Threads, the
// fidelity is cfg.Mode, and a non-zero cfg.MetricsEpoch attaches the
// metrics collector. The "oracle" kind replays book, the record of a
// profiling pass over the same program (Runner.Run makes one); every other
// kind ignores book.
func SimOptions(cfg runcfg.RunConfig, kind string, book *core.OracleBook) (sim.Options, error) {
	opt := sim.DefaultOptions()
	m, err := protocol.ConfigFor(cfg.Threads)
	if err != nil {
		return opt, fmt.Errorf("experiments: %w", err)
	}
	opt.Machine = m
	opt.Mode = sim.Mode(cfg.Mode)
	opt.MetricsEpoch = event.Time(cfg.MetricsEpoch)
	n := cfg.Threads
	mk := func(f func(arch.NodeID) predictor.Predictor) []predictor.Predictor {
		preds := make([]predictor.Predictor, n)
		for i := range preds {
			preds[i] = f(arch.NodeID(i))
		}
		return preds
	}
	switch kind {
	case "dir":
	case "bcast":
		opt.Protocol = sim.Broadcast
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(n))
	case "sp+filter":
		// §5.3 extension: a region snoop filter suppressing prediction
		// attempts on private data.
		preds := core.NewSystem(core.DefaultConfig(n))
		for i := range preds {
			preds[i] = predictor.NewRegionFilter(preds[i])
		}
		opt.Predictors = preds
	case "sp512":
		c := core.DefaultConfig(n)
		c.MaxEntries = 512
		opt.Predictors = core.NewSystem(c)
	case "addr":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewAddr(id, n) })
	case "inst":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewInst(id, n) })
	case "uni":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewUni(id, n) })
	case "addr-small":
		// ~0.5KB per node: the capacity wall sits ~8x lower than the
		// paper's 4KB because the synthetic working sets are ~8x smaller.
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor {
			c := predictor.DefaultAddrConfig(n)
			c.Entries = 64
			return predictor.NewGroup("ADDR-small", id, c)
		})
	case "inst-small":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor {
			c := predictor.DefaultInstConfig(n)
			c.Entries = 64
			return predictor.NewGroup("INST-small", id, c)
		})
	case "oracle":
		if book == nil {
			return opt, fmt.Errorf("experiments: configuration %q needs an oracle profiling pass", kind)
		}
		opt.Predictors = core.OracleSystem(n, book)
	default:
		return opt, fmt.Errorf("experiments: unknown configuration %q", kind)
	}
	return opt, nil
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
		opt, err := SimOptions(r.Cfg, "dir", nil)
		if err != nil {
			return nil, err
		}
		opt.MetricsEpoch = 0
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
		var book *core.OracleBook
		if kind == "oracle" {
			if book, err = r.book(bench); err != nil {
				return nil, err
			}
		}
		opt, err := SimOptions(r.Cfg, kind, book)
		if err != nil {
			return nil, err
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
		opt, err := SimOptions(r.Cfg, "dir", nil)
		if err != nil {
			return nil, err
		}
		// The §3.2 methodology is a detailed-fidelity trace run regardless of
		// the cell mode.
		opt.Mode = ""
		opt.MetricsEpoch = 0
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
func RunCell(cfg runcfg.RunConfig, bench, kind string) (*sim.Result, error) {
	return NewRunner(cfg).Run(bench, kind)
}

// RunSpecCell executes one simulation cell for a scenario spec, exactly as
// RunCell does for a built-in benchmark: self-contained, sharing no state
// with other cells, deterministic in (cfg, spec, kind).
func RunSpecCell(cfg runcfg.RunConfig, spec *scenario.Spec, kind string) (*sim.Result, error) {
	r := NewRunner(cfg)
	r.Spec = spec
	return r.Run(spec.Name, kind)
}
