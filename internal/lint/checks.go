package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(Check{
		Name: "maprange",
		Doc: "range over a map has randomized iteration order; iterate " +
			"detutil.SortedKeys(m), prove the body commutative, or annotate //" +
			AllowAnnotation + " maprange,floatorder -- reason",
		Run: checkMapRange,
	})
	Register(Check{
		Name: "wallclock",
		Doc: "wall-clock time or the global math/rand source in a simulation package; " +
			"use the event.Sim clock and an injected seeded *rand.Rand",
		SimOnly: true,
		Run:     checkWallClock,
	})
	Register(Check{
		Name: "goroutine",
		Doc: "goroutines and channel operations are forbidden in DES-driven packages; " +
			"the simulator is single-threaded by design",
		SimOnly: true,
		Run:     checkGoroutine,
	})
	Register(Check{
		Name: "floatorder",
		Doc: "floating-point accumulation inside a map-range body is " +
			"order-dependent (FP addition is not associative)",
		Run: checkFloatOrder,
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// checkMapRange reports every range over a map value unless the loop body
// is provably commutative (an allow directive on the statement drops the
// finding).
func checkMapRange(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.TypeOf(rng.X)) {
				return true
			}
			if commutativeBody(p, rng.Body) {
				return true
			}
			p.Report(rng.For, "maprange",
				fmt.Sprintf("iteration order over map %s is randomized; "+
					"range over detutil.SortedKeys or annotate //%s maprange,floatorder -- reason",
					types.ExprString(rng.X), AllowAnnotation))
			return true
		})
	}
}

// commutativeBody reports whether every statement in the block keeps the
// loop order-independent: filling map entries, integer commutative
// accumulation (+=, |=, &=, ^=, ++/--), deletes, local definitions, and
// conditionals/blocks composed of the same. Anything else — appends, calls,
// sends, float math — defeats the proof and the range is reported.
func commutativeBody(p *Pass, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if !commutativeStmt(p, st) {
			return false
		}
	}
	return true
}

func commutativeStmt(p *Pass, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		return commutativeAssign(p, s)
	case *ast.IncDecStmt:
		return isMapIndex(p, s.X) || isIntegerType(p.TypeOf(s.X))
	case *ast.ExprStmt:
		// delete(m, k) is order-independent.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !commutativeStmt(p, s.Init) {
			return false
		}
		if !commutativeBody(p, s.Body) {
			return false
		}
		return s.Else == nil || commutativeStmt(p, s.Else)
	case *ast.BlockStmt:
		return commutativeBody(p, s)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.DeclStmt, *ast.EmptyStmt:
		return true
	}
	return false
}

func commutativeAssign(p *Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		// Loop-local temporaries do not leak iteration order by themselves.
		return true
	case token.ASSIGN:
		// Plain stores are order-independent only when they land in map
		// entries (set semantics): m[k] = v.
		for _, lhs := range s.Lhs {
			if !isMapIndex(p, lhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative, associative integer accumulation.
		for _, lhs := range s.Lhs {
			if isMapIndex(p, lhs) {
				if t := p.TypeOf(lhs); !isIntegerType(t) {
					return false
				}
				continue
			}
			if !isIntegerType(p.TypeOf(lhs)) {
				return false
			}
		}
		return true
	}
	return false
}

func isMapIndex(p *Pass, e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	return ok && isMapType(p.TypeOf(ix.X))
}

// wallClockFuncs are the time-package functions that read or depend on the
// host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions drawing from the process-global source. Constructors such as
// rand.New and rand.NewSource are allowed: they are exactly how seeded
// *rand.Rand instances get injected.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

// checkWallClock reports references (not just calls, so passing time.Now as
// a value is caught too) to wall-clock time functions and to the global
// math/rand source inside simulation packages.
func checkWallClock(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					p.Report(sel.Pos(), "wallclock",
						fmt.Sprintf("time.%s reads the host clock; simulation time must come from event.Sim", fn.Name()))
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					p.Report(sel.Pos(), "wallclock",
						fmt.Sprintf("%s.%s draws from the process-global source; inject a seeded *rand.Rand", fn.Pkg().Name(), fn.Name()))
				}
			}
			return true
		})
	}
}

// checkGoroutine reports go statements and channel operations: the DES is
// single-threaded, and any concurrency makes event order host-dependent.
func checkGoroutine(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				p.Report(s.Pos(), "goroutine", "go statement in a DES-driven package; schedule an event.Sim callback instead")
			case *ast.SendStmt:
				p.Report(s.Pos(), "goroutine", "channel send in a DES-driven package")
			case *ast.SelectStmt:
				p.Report(s.Pos(), "goroutine", "select in a DES-driven package")
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					p.Report(s.Pos(), "goroutine", "channel receive in a DES-driven package")
				}
			case *ast.RangeStmt:
				if t := p.TypeOf(s.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						p.Report(s.For, "goroutine", "range over channel in a DES-driven package")
					}
				}
			}
			return true
		})
	}
}

// checkFloatOrder reports floating-point compound accumulation inside
// map-range bodies: even if every element is visited, the accumulated sum
// depends on visit order. A floatorder allow on the range statement covers
// its whole body.
func checkFloatOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.TypeOf(rng.X)) || p.Allowed(rng.For, "floatorder") {
				return true
			}
			ast.Inspect(rng.Body, func(inner ast.Node) bool {
				switch s := inner.(type) {
				case *ast.AssignStmt:
					switch s.Tok {
					case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
						for _, lhs := range s.Lhs {
							if isFloatType(p.TypeOf(lhs)) {
								p.Report(s.Pos(), "floatorder",
									"floating-point accumulation inside a map range; the result depends on iteration order")
							}
						}
					}
				}
				return true
			})
			return true
		})
	}
}
