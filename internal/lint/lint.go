// Package lint is a from-scratch, stdlib-only static analyzer that enforces
// the simulator's determinism invariants (see internal/event: "experiments
// must be reproducible"). It walks non-test packages and reports code whose
// behaviour can differ between two runs with the same seed: randomized map
// iteration, wall-clock or global-rand dependence, concurrency inside the
// single-threaded DES, and order-dependent floating-point accumulation.
//
// Beyond the per-package determinism checks, the analyzer carries four
// whole-program invariant checks backing the performance and metrics
// architecture (DESIGN.md §12): enum-switch exhaustiveness, //spcoh:noalloc
// escape-freedom, observer purity, and pooled-record escape.
//
// One suppression annotation exists: "//spvet:allow check1,check2 -- reason"
// suppresses the named checks on the annotated line or the line below the
// comment. The reason is mandatory: a reasonless allow is itself reported
// (check "allow"). On a map range, "maprange,floatorder" marks the loop as
// genuinely order-independent.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllowAnnotation is the general suppression form: it names the checks being
// silenced and requires a reason after a "--" separator.
const AllowAnnotation = "spvet:allow"

// NoallocAnnotation marks a function whose body must be free of heap
// allocation (verified against the compiler's escape analysis; noalloc.go).
const NoallocAnnotation = "spcoh:noalloc"

// PooledAnnotation marks a freelist-managed record type whose instances must
// not outlive their callback (poolescape.go).
const PooledAnnotation = "spcoh:pooled"

// Severity classifies findings: errors gate CI, warnings are informative.
type Severity string

const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
)

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Check    string
	Severity Severity
	Msg      string
}

// String renders the canonical "file:line: [check] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Check is one registered analysis. Exactly one of Run (per-package) and
// RunModule (once per invocation, over all matched packages) must be set.
type Check struct {
	Name string
	Doc  string
	// Severity of this check's findings (SevError when empty).
	Severity Severity
	// SimOnly restricts the check to simulation packages (per
	// Analyzer.IsSim); determinism of the DES does not require, say,
	// a CLI to avoid wall-clock timestamps in its progress output.
	SimOnly   bool
	Run       func(*Pass)
	RunModule func(*ModulePass) error
}

var registry []Check

// Register adds a check to the global registry. Checks run in registration
// order; the built-in checks register at init time.
func Register(c Check) {
	for _, r := range registry {
		if r.Name == c.Name {
			panic("lint: duplicate check " + c.Name)
		}
	}
	if (c.Run == nil) == (c.RunModule == nil) {
		panic("lint: check " + c.Name + " must set exactly one of Run and RunModule")
	}
	if c.Severity == "" {
		c.Severity = SevError
	}
	registry = append(registry, c)
}

// Checks returns the registered checks.
func Checks() []Check {
	out := make([]Check, len(registry))
	copy(out, registry)
	return out
}

// allowDirective is one parsed //spvet:allow comment.
type allowDirective struct {
	pos    token.Position
	checks []string
	reason string
	err    string // non-empty when malformed; reported by the allow check
}

func (d *allowDirective) covers(check string) bool {
	for _, c := range d.checks {
		if c == check {
			return true
		}
	}
	return false
}

// fileAnnots holds the suppression annotations of one file, keyed by line.
type fileAnnots struct {
	allows map[int][]*allowDirective
}

// run is the shared state of one Analyzer.Run invocation.
type run struct {
	analyzer *Analyzer
	loader   *Loader
	checks   []Check
	sev      map[string]Severity
	byFile   map[string]*fileAnnots
	findings []Finding
}

func (r *run) allowedAt(file string, line int, check string) bool {
	fa := r.byFile[file]
	if fa == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, d := range fa.allows[l] {
			if d.err == "" && d.covers(check) {
				return true
			}
		}
	}
	return false
}

// report records a finding unless an allow directive covers it. An empty
// severity selects the check's registered severity.
func (r *run) report(pos token.Position, check string, sev Severity, msg string) {
	if r.allowedAt(pos.Filename, pos.Line, check) {
		return
	}
	r.reportRaw(pos, check, sev, msg)
}

// reportRaw records a finding without consulting allow directives (used by
// the allow meta-check, whose findings must not be self-suppressible).
func (r *run) reportRaw(pos token.Position, check string, sev Severity, msg string) {
	if sev == "" {
		sev = r.sev[check]
		if sev == "" {
			sev = SevError
		}
	}
	r.findings = append(r.findings, Finding{Pos: pos, Check: check, Severity: sev, Msg: msg})
}

// Pass carries one package through one per-package check.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	IsSim bool

	analyzer *Analyzer
	run      *run
	// annots holds this package's files' suppression annotations (the
	// whole run's table lives in run.byFile).
	annots map[string]*fileAnnots
}

// Report records a finding at pos with the check's registered severity.
func (p *Pass) Report(pos token.Pos, check, msg string) {
	p.run.report(p.Fset.Position(pos), check, "", msg)
}

// Allowed reports whether an allow directive for check covers the
// statement at pos, trailing on the same line or on the line above; a
// check whose findings land inside the statement's body uses it to honour
// a directive on the statement itself.
func (p *Pass) Allowed(pos token.Pos, check string) bool {
	position := p.Fset.Position(pos)
	return p.run.allowedAt(position.Filename, position.Line, check)
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ModulePass carries one whole-module check over all matched packages.
type ModulePass struct {
	Fset    *token.FileSet
	Pkgs    []*Package // the packages matched by the run's patterns
	ModRoot string
	ModPath string
	IsSim   func(importPath string) bool

	run *run
}

// Report records a finding at pos with the check's registered severity.
func (m *ModulePass) Report(pos token.Pos, check, msg string) {
	m.run.report(m.Fset.Position(pos), check, "", msg)
}

// ReportPosition records a finding at an externally produced position (e.g.
// a compiler diagnostic); allow directives on that line still apply.
func (m *ModulePass) ReportPosition(pos token.Position, check string, sev Severity, msg string) {
	m.run.report(pos, check, sev, msg)
}

// Lookup returns the loaded package with the given import path, whether it
// was matched by the patterns or pulled in as a dependency; nil if unloaded.
func (m *ModulePass) Lookup(path string) *Package { return m.run.loader.pkgs[path] }

// Loaded returns every package the loader has seen (matched packages plus
// their module-internal dependencies), sorted by import path.
func (m *ModulePass) Loaded() []*Package {
	out := make([]*Package, 0, len(m.run.loader.pkgs))
	for _, p := range m.run.loader.pkgs { //spvet:allow maprange,floatorder -- sorted below
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// DefaultIsSim returns the production classification of simulation
// packages for a module: everything under internal/ is DES-driven code
// that must replay bit-identically, except
//
//   - internal/lint — the analyzer itself,
//   - internal/sweep — the host-side sweep orchestrator, which runs
//     *above* the DES: it schedules whole simulations onto OS threads and
//     is explicitly concurrent. Every job it runs is still a
//     single-threaded simulation, and its merge order stays deterministic
//     via the always-on maprange/floatorder checks plus the package's
//     determinism tests, and
//   - internal/sweepd — the sweep job server, the same orchestration tier
//     one level up: leases, wall-clock TTLs and HTTP are its job. Its
//     merge endpoint stays byte-deterministic for the same reason the
//     local engine's does (content-addressed results, key-ordered merge),
//     enforced by its determinism tests rather than by SimOnly checks.
//
// Exemptions match whole path segments (the package itself or anything
// under it) — "/internal/sweep" must not accidentally cover a sibling
// like "/internal/sweepd"; that package earns its own entry.
//
// CLIs and examples may read the host clock for progress reporting, but
// still get maprange/floatorder scrutiny.
func DefaultIsSim(modPath string) func(importPath string) bool {
	return func(path string) bool {
		if !strings.HasPrefix(path, modPath+"/internal/") {
			return false
		}
		for _, exempt := range []string{"/internal/lint", "/internal/sweep", "/internal/sweepd"} {
			root := modPath + exempt
			if path == root || strings.HasPrefix(path, root+"/") {
				return false
			}
		}
		return true
	}
}

// Analyzer runs the registered checks over a module's packages.
type Analyzer struct {
	ModRoot string
	ModPath string
	// IsSim classifies import paths as simulation packages (DES-driven
	// code that must be bit-reproducible). SimOnly checks are limited to
	// packages for which this returns true. Nil means no package is.
	IsSim func(importPath string) bool
	// Checks overrides the global registry when non-nil.
	Checks []Check
}

// Run loads the packages matching patterns and applies every check,
// returning findings sorted by position then check name.
func (a *Analyzer) Run(patterns ...string) ([]Finding, error) {
	loader := NewLoader(a.ModRoot, a.ModPath)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	checks := a.Checks
	if checks == nil {
		checks = Checks()
	}
	r := &run{
		analyzer: a,
		loader:   loader,
		checks:   checks,
		sev:      make(map[string]Severity, len(checks)),
		byFile:   make(map[string]*fileAnnots),
	}
	for _, c := range checks {
		r.sev[c.Name] = c.Severity
	}
	passes := make([]*Pass, len(pkgs))
	for i, pkg := range pkgs {
		annots := parseAnnotations(loader.Fset, pkg.Files)
		for file, fa := range annots {
			r.byFile[file] = fa
		}
		passes[i] = &Pass{
			Fset:     loader.Fset,
			Pkg:      pkg,
			IsSim:    a.IsSim != nil && a.IsSim(pkg.Path),
			analyzer: a,
			run:      r,
			annots:   annots,
		}
	}
	for _, pass := range passes {
		for _, c := range checks {
			if c.Run == nil || (c.SimOnly && !pass.IsSim) {
				continue
			}
			c.Run(pass)
		}
	}
	mp := &ModulePass{
		Fset:    loader.Fset,
		Pkgs:    pkgs,
		ModRoot: a.ModRoot,
		ModPath: a.ModPath,
		IsSim:   a.IsSim,
		run:     r,
	}
	for _, c := range checks {
		if c.RunModule == nil {
			continue
		}
		if err := c.RunModule(mp); err != nil {
			return nil, fmt.Errorf("lint: check %s: %w", c.Name, err)
		}
	}
	sort.Slice(r.findings, func(i, j int) bool {
		fi, fj := r.findings[i], r.findings[j]
		if fi.Pos.Filename != fj.Pos.Filename {
			return fi.Pos.Filename < fj.Pos.Filename
		}
		if fi.Pos.Line != fj.Pos.Line {
			return fi.Pos.Line < fj.Pos.Line
		}
		return fi.Check < fj.Check
	})
	return r.findings, nil
}

// parseAnnotations maps filename -> allow directives for a package's files.
func parseAnnotations(fset *token.FileSet, files []*ast.File) map[string]*fileAnnots {
	out := make(map[string]*fileAnnots)
	annots := func(file string) *fileAnnots {
		fa := out[file]
		if fa == nil {
			fa = &fileAnnots{allows: make(map[int][]*allowDirective)}
			out[file] = fa
		}
		return fa
	}
	for _, f := range files {
		file := fset.Position(f.Pos()).Filename
		annots(file) // every file gets an entry, even without annotations
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//") {
					continue // block comments cannot carry directives
				}
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				pos := fset.Position(c.Pos())
				if strings.HasPrefix(text, AllowAnnotation) {
					fa := annots(pos.Filename)
					fa.allows[pos.Line] = append(fa.allows[pos.Line], parseAllow(text, pos))
				}
			}
		}
	}
	return out
}

// parseAllow parses one "spvet:allow check1,check2 -- reason" directive.
func parseAllow(text string, pos token.Position) *allowDirective {
	d := &allowDirective{pos: pos}
	rest := strings.TrimSpace(strings.TrimPrefix(text, AllowAnnotation))
	names, reason, found := strings.Cut(rest, "--")
	if !found {
		d.err = "missing '-- reason' (suppressions must explain themselves)"
		return d
	}
	for _, f := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		d.checks = append(d.checks, f)
	}
	d.reason = strings.TrimSpace(reason)
	if len(d.checks) == 0 {
		d.err = "no check names before '--'"
	} else if d.reason == "" {
		d.err = "empty reason after '--' (suppressions must explain themselves)"
	}
	return d
}

func init() {
	Register(Check{
		Name: "allow",
		Doc: "validates //spvet:allow suppression directives: a reason after " +
			"'--' is mandatory, and the named checks must exist",
		Run: checkAllowDirectives,
	})
}

// checkAllowDirectives reports malformed allow directives (error) and allow
// directives naming unknown checks (warn — the suppression will not bite, so
// the underlying finding still surfaces on its own).
func checkAllowDirectives(p *Pass) {
	known := make(map[string]bool, len(p.run.checks))
	for _, c := range p.run.checks {
		known[c.Name] = true
	}
	for _, fa := range p.annots { //spvet:allow maprange,floatorder -- findings are sorted by the driver
		for _, ds := range fa.allows { //spvet:allow maprange,floatorder -- findings are sorted by the driver
			for _, d := range ds {
				if d.err != "" {
					p.run.reportRaw(d.pos, "allow", SevError, "malformed suppression: "+d.err)
					continue
				}
				for _, c := range d.checks {
					if !known[c] {
						p.run.reportRaw(d.pos, "allow", SevWarn,
							fmt.Sprintf("suppression names unknown check %q (it will have no effect)", c))
					}
				}
			}
		}
	}
}
