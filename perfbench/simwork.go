package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"spcoh/internal/core"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// Program sizes: the 4x4 suites build a quarter of each profile's full
// size; at 256 threads the specs are already at their smallest size.
var (
	suiteScale = 0.25
	meshScale  = 0.01

	// meshProfiles are the 16x16 cells: a nearest-neighbour stencil, an
	// n-body code with lock-protected updates, and a pipeline, a second
	// or less each, so a run times every cell many times.
	meshProfiles = []string{"ocean", "water-ns", "vips"}
)

// suite runs detailed simulations of built-in profiles, one cell at a time,
// each cell on a freshly built system (cold L2s).
type suite struct {
	threads int
	scale   float64
	kinds   []string
	shards  int      // 0 = serial engine
	names   []string // profiles; nil = all built-in ones

	machine  protocol.Config
	profiles []workload.Profile
	seed     int64

	pins   map[string]string // pinned digests for this seed, if any
	seen   map[string]string // digests of the first pass: later passes must repeat them
	serial map[string]string // serial-engine digests of the cells checked against them
}

func newSuite(threads int, scale float64, kinds []string, shards int, names []string) *suite {
	return &suite{threads: threads, scale: scale, kinds: kinds, shards: shards, names: names}
}

func (s *suite) prepare(seed int64, pins map[string]string) error {
	s.seed, s.pins, s.seen = seed, pins, map[string]string{}
	s.machine = sim.DefaultOptions().Machine
	if s.threads != s.machine.Nodes {
		m, err := protocol.ConfigFor(s.threads)
		if err != nil {
			return err
		}
		s.machine = m
	}
	names := s.names
	if names == nil {
		names = workload.Builtin().Names()
	}
	s.profiles = nil
	for _, n := range names {
		p, ok := workload.Builtin().Lookup(n)
		if !ok {
			return fmt.Errorf("unknown profile %q", n)
		}
		s.profiles = append(s.profiles, p)
	}
	if s.shards > 1 {
		// The sharded executor must reproduce the serial engine's bytes:
		// run the first cell serially once, and check every pass against it.
		p := s.profiles[0]
		prog, err := p.Program(s.threads, s.scale, s.seed)
		if err != nil {
			return err
		}
		res, err := sim.Run(prog, s.options(s.kinds[0], 0))
		if err != nil {
			return fmt.Errorf("serial reference: %w", err)
		}
		s.serial = map[string]string{p.Name + "/" + s.kinds[0]: digest(res)}
	}
	return nil
}

// options configures one cell; predictors are fresh for every run.
func (s *suite) options(kind string, shards int) sim.Options {
	opt := sim.DefaultOptions()
	opt.Machine = s.machine
	opt.Shards = shards
	switch kind {
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(s.threads))
	case "bcast":
		opt.Protocol = sim.Broadcast
	}
	return opt
}

type simCell struct {
	key   string
	prog  *workload.Program
	opt   sim.Options
	timed []*timedPredictor
}

func (s *suite) pass(traced bool) (*passStats, error) {
	return s.run(traced, s.shards)
}

// serialPass times the workload once on the serial engine; nil when the
// workload runs on it anyway.
func (s *suite) serialPass() (*passStats, error) {
	if s.shards <= 1 {
		return nil, nil
	}
	return s.run(false, 0)
}

func (s *suite) run(traced bool, shards int) (*passStats, error) {
	start := time.Now()
	ps := &passStats{}

	// Set-up: every program built from its spec, plus the predictor sets.
	var cells []simCell
	for _, p := range s.profiles {
		t0 := time.Now()
		prog, err := p.Program(s.threads, s.scale, s.seed)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p.Name, err)
		}
		ps.layer.build += time.Since(t0)
		ps.layer.ops += uint64(prog.TotalOps())
		for _, k := range s.kinds {
			c := simCell{key: p.Name + "/" + k, prog: prog, opt: s.options(k, shards)}
			if traced && c.opt.Predictors != nil {
				c.timed = wrapPredictors(c.opt.Predictors)
			}
			cells = append(cells, c)
		}
	}
	ps.setup = time.Since(start)

	for _, c := range cells {
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		res, err := sim.Run(c.prog, c.opt)
		d := time.Since(t0)
		if traced {
			runtime.ReadMemStats(&m1)
			ps.layer.addMem(&m0, &m1)
			ps.layer.addPredictors(c.timed)
		}
		ps.cells++
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.key, err)
			ps.failed++
			continue
		}
		ps.addRun(c.key, d, uint64(res.Cycles))
		ps.layer.addResult(res)
		if !s.check(c.key, res) {
			ps.failed++
		}
	}
	ps.wall = time.Since(start)
	ps.cellWindow = ps.wall
	return ps, nil
}

// check compares a cell's digest with the pinned one, with the serial
// engine's, and with the first pass's; it reports whether all agree.
func (s *suite) check(key string, res *sim.Result) bool {
	d := digest(res)
	ok := true
	if s.pins != nil && s.pins[key] != d {
		fmt.Fprintf(os.Stderr, "%s: digest %.12s, pinned %.12s\n", key, d, s.pins[key])
		ok = false
	}
	if want, has := s.serial[key]; has && want != d {
		fmt.Fprintf(os.Stderr, "%s: sharded digest %.12s, serial %.12s\n", key, d, want)
		ok = false
	}
	if first, has := s.seen[key]; has && first != d {
		fmt.Fprintf(os.Stderr, "%s: digest %.12s differs from the first pass's %.12s\n", key, d, first)
		ok = false
	} else if !has {
		s.seen[key] = d
	}
	return ok
}

func (s *suite) digests() (map[string]string, error) {
	if _, err := s.pass(false); err != nil {
		return nil, err
	}
	return s.seen, nil
}

// digest is the SHA-256 of a result's JSON encoding: every simulated
// statistic of the cell.
func digest(res *sim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timedPredictor counts and times the calls into one node's predictor.
type timedPredictor struct {
	predictor.Predictor
	calls uint64
	busy  time.Duration
}

func wrapPredictors(preds []predictor.Predictor) []*timedPredictor {
	timed := make([]*timedPredictor, len(preds))
	for i, p := range preds {
		timed[i] = &timedPredictor{Predictor: p}
		preds[i] = timed[i]
	}
	return timed
}
