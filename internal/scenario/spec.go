// Package scenario defines the declarative workload specification: a JSON
// document describing a synthetic multithreaded program's synchronization
// structure (barrier sites, lock sites, iteration schedule) and the
// composition of sharing-pattern primitives executed between barriers
// (producer-consumer exchange, hot-spot broadcast, migratory critical
// sections, random stealing, private streaming).
//
// A spec is pure data: the same spec built at the same (threads, scale,
// seed) always emits the same operation stream, so specs slot into the
// repository's determinism contract — the byte-replay harness and spvet
// gate spec-driven runs exactly as they gate the built-in profiles. The
// built-in 17 SPLASH-2/PARSEC stand-ins are themselves shipped as specs
// (internal/workload/specs) and interpreted through the same path.
//
// The package is deliberately free of simulator dependencies: it compiles
// specs and walks them against the Machine interface; internal/workload
// adapts that interface onto its op-stream Builder. See DESIGN.md §13 for
// the schema and the generator's validity invariants.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"spcoh/internal/detutil"
)

// Version is the spec schema version this package reads and writes.
const Version = 1

// Limits keeping generated and hand-written specs inside the address-space
// and runtime envelope the simulator models.
const (
	MaxBarriers = 256
	MaxLocks    = 256
	MaxIters    = 4096
	MaxRegions  = 64
	MaxLines    = 1024
	MaxCount    = 1 << 16
	MaxSteps    = 256
	MaxDepth    = 8 // nesting depth of group/loop steps
)

// PaperStats carries a profile's published Table 1 reference values for
// side-by-side reporting; zero for synthetic (generated) scenarios.
type PaperStats struct {
	StaticCS     int    `json:"static_cs,omitempty"`
	StaticEpochs int    `json:"static_epochs,omitempty"`
	DynEpochs    int    `json:"dyn_epochs,omitempty"`
	Input        string `json:"input,omitempty"`
}

// Spec is one declarative workload scenario.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Suite   string `json:"suite,omitempty"`

	// Barriers and Locks are the static sync-site populations; Iters is
	// the base outer-iteration count, scaled at build time by
	// topo.ScaleIters. Each iteration crosses every barrier site in order.
	Barriers int `json:"barriers"`
	Locks    int `json:"locks"`
	Iters    int `json:"iters"`

	// Defs are named expressions usable as variables in any step
	// expression (e.g. "owner": "(it / 4) % n").
	Defs map[string]string `json:"defs,omitempty"`

	// Steps is the per-barrier body: after every barrier crossing, each
	// thread executes the steps whose guards hold, in order.
	Steps []Step `json:"steps"`

	// Paper holds published reference statistics (built-in profiles only).
	Paper *PaperStats `json:"paper,omitempty"`
}

// Step is one guarded action of the per-barrier body. Op selects the
// action; When (optional) is a guard expression — the step runs only when
// it evaluates nonzero. Expression-valued fields are strings in the
// scenario expression language; structural fields (lines, ws) are plain
// integers.
//
//	op            fields
//	produce       region, to, lines, count
//	consume       region, from, lines, count
//	produce_all   region, lines            (one produce per consumer)
//	cs            lock, region, lines, count
//	private       count, ws
//	compute       cycles
//	loop          var, lo, hi, steps       (inclusive bounds)
//	group         steps                    (guard-scoped nesting)
type Step struct {
	When string `json:"when,omitempty"`
	Op   string `json:"op"`

	Region string `json:"region,omitempty"` // shared region index (expr)
	To     string `json:"to,omitempty"`     // produce consumer (expr)
	From   string `json:"from,omitempty"`   // consume producer (expr)
	Lock   string `json:"lock,omitempty"`   // cs lock index (expr)
	Count  string `json:"count,omitempty"`  // access count (expr)
	Cycles string `json:"cycles,omitempty"` // compute cycles (expr)
	Lines  int    `json:"lines,omitempty"`  // partition / protected lines
	Ws     int    `json:"ws,omitempty"`     // private working-set lines

	Var string `json:"var,omitempty"` // loop variable name
	Lo  string `json:"lo,omitempty"`  // loop lower bound (expr)
	Hi  string `json:"hi,omitempty"`  // loop upper bound (expr, inclusive)

	Steps []Step `json:"steps,omitempty"` // loop / group body
}

// Parse decodes and validates a spec document.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses the spec file at path.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the spec's canonical JSON encoding: fixed field order,
// map keys sorted (encoding/json), no indentation. Digest and the sweep
// job identity hash over these bytes.
func (s *Spec) Canonical() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalize %s: %w", s.Name, err)
	}
	return b, nil
}

// Digest returns the SHA-256 of the canonical encoding — the spec's
// content address. Two specs with equal digests build identical programs
// at any (threads, scale, seed).
func (s *Spec) Digest() string {
	b, err := s.Canonical()
	if err != nil {
		// Spec is a tree of scalars; Marshal cannot fail on a validated one.
		panic("scenario: digest: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks structural and expression-level well-formedness. A valid
// spec can still fail at emit time on data-dependent errors (an evaluated
// lock index out of range, rng with a non-positive bound); FromSpec
// surfaces those as build errors.
func (s *Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario: spec %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Version != Version {
		return fail("unsupported version %d (want %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fail("missing name")
	}
	if s.Barriers < 1 || s.Barriers > MaxBarriers {
		return fail("barriers %d out of range [1, %d]", s.Barriers, MaxBarriers)
	}
	if s.Locks < 0 || s.Locks > MaxLocks {
		return fail("locks %d out of range [0, %d]", s.Locks, MaxLocks)
	}
	if s.Iters < 1 || s.Iters > MaxIters {
		return fail("iters %d out of range [1, %d]", s.Iters, MaxIters)
	}
	if len(s.Steps) == 0 {
		return fail("no steps")
	}
	for _, name := range detutil.SortedKeys(s.Defs) {
		if _, ok := builtinVars[name]; ok {
			return fail("def %q shadows a builtin variable", name)
		}
		if _, ok := exprFuncs[name]; ok {
			return fail("def %q shadows a builtin function", name)
		}
		if _, err := CompileExpr(s.Defs[name]); err != nil {
			return fail("def %q: %v", name, err)
		}
	}
	n, err := validateSteps(s.Steps, 0)
	if err != nil {
		return fail("%v", err)
	}
	if n > MaxSteps {
		return fail("%d steps exceed the %d limit", n, MaxSteps)
	}
	return nil
}

// validateSteps checks a step list, returning the total step count.
func validateSteps(steps []Step, depth int) (int, error) {
	if depth > MaxDepth {
		return 0, fmt.Errorf("steps nested deeper than %d", MaxDepth)
	}
	total := 0
	for k := range steps {
		st := &steps[k]
		total++
		if st.When != "" {
			if _, err := CompileExpr(st.When); err != nil {
				return 0, fmt.Errorf("step %d (%s): when: %v", k, st.Op, err)
			}
		}
		expr := func(field, src string, required bool) error {
			if src == "" {
				if required {
					return fmt.Errorf("step %d (%s): missing %s", k, st.Op, field)
				}
				return nil
			}
			if _, err := CompileExpr(src); err != nil {
				return fmt.Errorf("step %d (%s): %s: %v", k, st.Op, field, err)
			}
			return nil
		}
		lines := func(required bool) error {
			if st.Lines == 0 && !required {
				return nil
			}
			if st.Lines < 1 || st.Lines > MaxLines {
				return fmt.Errorf("step %d (%s): lines %d out of range [1, %d]", k, st.Op, st.Lines, MaxLines)
			}
			return nil
		}
		var err error
		switch st.Op {
		case "produce":
			err = firstErr(expr("region", st.Region, true), expr("to", st.To, true),
				expr("count", st.Count, true), lines(true))
		case "consume":
			err = firstErr(expr("region", st.Region, true), expr("from", st.From, true),
				expr("count", st.Count, true), lines(true))
		case "produce_all":
			err = firstErr(expr("region", st.Region, true), lines(true))
		case "cs":
			err = firstErr(expr("lock", st.Lock, true), expr("region", st.Region, true),
				expr("count", st.Count, true), lines(true))
		case "private":
			err = expr("count", st.Count, true)
			if err == nil && (st.Ws < 1 || st.Ws > 1<<24) {
				err = fmt.Errorf("step %d (private): ws %d out of range [1, %d]", k, st.Ws, 1<<24)
			}
		case "compute":
			err = expr("cycles", st.Cycles, true)
		case "loop":
			if st.Var == "" {
				err = fmt.Errorf("step %d (loop): missing var", k)
			} else if _, ok := builtinVars[st.Var]; ok {
				err = fmt.Errorf("step %d (loop): var %q shadows a builtin", k, st.Var)
			} else {
				err = firstErr(expr("lo", st.Lo, true), expr("hi", st.Hi, true))
			}
			if err == nil {
				if len(st.Steps) == 0 {
					err = fmt.Errorf("step %d (loop): empty body", k)
				} else {
					var sub int
					sub, err = validateSteps(st.Steps, depth+1)
					total += sub
				}
			}
		case "group":
			if len(st.Steps) == 0 {
				err = fmt.Errorf("step %d (group): empty body", k)
			} else {
				var sub int
				sub, err = validateSteps(st.Steps, depth+1)
				total += sub
			}
		case "":
			err = fmt.Errorf("step %d: missing op", k)
		default:
			err = fmt.Errorf("step %d: unknown op %q", k, st.Op)
		}
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
