package scenario

import (
	"fmt"
	"math/rand"
	"strconv"

	"spcoh/internal/workload/topo"
)

// The scenario expression language: integer expressions over the walk
// variables (i, n, it, j, iters, locks, bars), loop variables and named
// defs, with Go arithmetic semantics. Comparisons and logical operators
// produce 0/1, so guards and counts share one value domain; `rng(m)`
// consumes the program's build-time random source exactly where it appears
// in the emit order, which is what keeps spec-driven builds byte-identical
// to the hand-coded profiles they replace.
//
// Grammar (precedence climbing, loosest first):
//
//	expr  := or
//	or    := and    { "||" and }
//	and   := cmp    { "&&" cmp }
//	cmp   := sum    [ ("=="|"!="|"<="|">="|"<"|">") sum ]
//	sum   := term   { ("+"|"-") term }
//	term  := unary  { ("*"|"/"|"%") unary }
//	unary := ("-"|"!") unary | primary
//	primary := INT | IDENT | IDENT "(" expr {"," expr} ")" | "(" expr ")"
//
// Functions: east(x), west(x), parent(x), child(x,k), rng(m), min(a,b),
// max(a,b). east/west/child take the thread count from the environment.

// Env is the variable binding under which an expression evaluates: the
// walker's fixed loop indices plus loop variables and spec defs resolved
// by name.
type Env struct {
	I, N, It, J, Iters, Locks, Bars int64

	// Rng is the build-time random source backing rng(m). Nil forbids rng.
	Rng *rand.Rand

	// defs maps spec-level named expressions; loop holds loop variables.
	// Both are managed by the emit walker.
	defs map[string]*Expr
	loop map[string]int64

	// depth guards against runaway def recursion.
	depth int
}

// maxDefDepth bounds def-to-def reference chains.
const maxDefDepth = 16

// lookupVar resolves a loop variable or, failing that, a def. The
// builtins (i, n, it, j, iters, locks, bars) never reach it: the parser
// resolves them to field reads, which is how they keep precedence over
// loop variables and defs.
func (e *Env) lookupVar(name string) (int64, error) {
	if v, ok := e.loop[name]; ok {
		return v, nil
	}
	if d, ok := e.defs[name]; ok {
		if e.depth >= maxDefDepth {
			return 0, fmt.Errorf("def %q: reference chain deeper than %d", name, maxDefDepth)
		}
		e.depth++
		v, err := d.Eval(e)
		e.depth--
		if err != nil {
			return 0, fmt.Errorf("def %q: %w", name, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("unknown variable %q", name)
}

// Expr is one compiled expression.
type Expr struct {
	src  string
	node node
}

// Src returns the source text the expression was compiled from.
func (e *Expr) Src() string { return e.src }

// CompileExpr parses src into an evaluable expression.
func CompileExpr(src string) (*Expr, error) {
	p := &parser{src: src}
	p.next()
	n, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("expr %q: %w", src, err)
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("expr %q: trailing input at %q", src, p.lit)
	}
	return &Expr{src: src, node: n}, nil
}

// Eval evaluates the expression under env.
func (e *Expr) Eval(env *Env) (int64, error) {
	v, err := e.node.eval(env)
	if err != nil {
		return 0, fmt.Errorf("expr %q: %w", e.src, err)
	}
	return v, nil
}

// EvalBool evaluates the expression as a guard: nonzero is true.
func (e *Expr) EvalBool(env *Env) (bool, error) {
	v, err := e.Eval(env)
	return v != 0, err
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

// The parser resolves every operator, builtin variable and function name
// to a small code, so evaluation compares no strings, and a call
// evaluates its arguments into a fixed array: walking an expression
// allocates nothing unless it fails.

type node interface {
	eval(*Env) (int64, error)
}

type intNode int64

func (n intNode) eval(*Env) (int64, error) { return int64(n), nil }

// builtinNode reads one of the walker's fixed loop indices.
type builtinNode uint8

const (
	varI builtinNode = iota
	varN
	varIt
	varJ
	varIters
	varLocks
	varBars
)

// builtinVars maps the builtin variable names to their nodes. Defs and
// loop variables may not take these names.
var builtinVars = map[string]builtinNode{
	"i": varI, "n": varN, "it": varIt, "j": varJ,
	"iters": varIters, "locks": varLocks, "bars": varBars,
}

func (n builtinNode) eval(env *Env) (int64, error) {
	switch n {
	case varI:
		return env.I, nil
	case varN:
		return env.N, nil
	case varIt:
		return env.It, nil
	case varJ:
		return env.J, nil
	case varIters:
		return env.Iters, nil
	case varLocks:
		return env.Locks, nil
	default:
		return env.Bars, nil
	}
}

// varNode names a loop variable or a def.
type varNode string

func (n varNode) eval(env *Env) (int64, error) { return env.lookupVar(string(n)) }

type unaryNode struct {
	neg bool // "-"; otherwise "!"
	x   node
}

func (n *unaryNode) eval(env *Env) (int64, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return 0, err
	}
	if n.neg {
		return -v, nil
	}
	return b2i(v == 0), nil
}

type binOp uint8

const (
	opOr binOp = iota
	opAnd
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
)

// binOps maps the binary operator tokens to their codes.
var binOps = map[string]binOp{
	"||": opOr, "&&": opAnd, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
}

type binNode struct {
	op   binOp
	l, r node
}

func (n *binNode) eval(env *Env) (int64, error) {
	l, err := n.l.eval(env)
	if err != nil {
		return 0, err
	}
	// Short-circuit the logical operators.
	switch {
	case n.op == opAnd && l == 0:
		return 0, nil
	case n.op == opOr && l != 0:
		return 1, nil
	}
	r, err := n.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case opOr, opAnd:
		return b2i(r != 0), nil
	case opAdd:
		return l + r, nil
	case opSub:
		return l - r, nil
	case opMul:
		return l * r, nil
	case opDiv:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case opMod:
		if r == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return l % r, nil
	case opEq:
		return b2i(l == r), nil
	case opNe:
		return b2i(l != r), nil
	case opLt:
		return b2i(l < r), nil
	case opLe:
		return b2i(l <= r), nil
	case opGt:
		return b2i(l > r), nil
	default:
		return b2i(l >= r), nil
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

type funcCode uint8

const (
	fnEast funcCode = iota
	fnWest
	fnParent
	fnChild
	fnRng
	fnMin
	fnMax
)

// exprFuncs maps function names to their codes; validation uses it too.
var exprFuncs = map[string]funcCode{
	"east": fnEast, "west": fnWest, "parent": fnParent, "child": fnChild,
	"rng": fnRng, "min": fnMin, "max": fnMax,
}

// arity returns the function's argument count: one or two.
func (f funcCode) arity() int {
	switch f {
	case fnChild, fnMin, fnMax:
		return 2
	default:
		return 1
	}
}

type callNode struct {
	fn   funcCode
	args [2]node // the first fn.arity() are set
}

func (n *callNode) eval(env *Env) (int64, error) {
	var v [2]int64
	for i := range n.fn.arity() {
		x, err := n.args[i].eval(env)
		if err != nil {
			return 0, err
		}
		v[i] = x
	}
	switch n.fn {
	case fnEast:
		if env.N <= 0 {
			return 0, fmt.Errorf("east: no threads in scope")
		}
		return int64(topo.East(int(v[0]), int(env.N))), nil
	case fnWest:
		if env.N <= 0 {
			return 0, fmt.Errorf("west: no threads in scope")
		}
		return int64(topo.West(int(v[0]), int(env.N))), nil
	case fnParent:
		return int64(topo.Parent(int(v[0]))), nil
	case fnChild:
		if env.N <= 0 {
			return 0, fmt.Errorf("child: no threads in scope")
		}
		return int64(topo.Child(int(v[0]), int(v[1]), int(env.N))), nil
	case fnRng:
		if env.Rng == nil {
			return 0, fmt.Errorf("rng: no random source in scope")
		}
		if v[0] <= 0 {
			return 0, fmt.Errorf("rng(%d): bound must be positive", v[0])
		}
		return int64(env.Rng.Intn(int(v[0]))), nil
	case fnMin:
		return min(v[0], v[1]), nil
	default:
		return max(v[0], v[1]), nil
	}
}

// ---------------------------------------------------------------------------
// Lexer + parser
// ---------------------------------------------------------------------------

type token int

const (
	tokEOF token = iota
	tokInt
	tokIdent
	tokOp     // + - * / % ! < > <= >= == != && ||
	tokLParen // (
	tokRParen // )
	tokComma  // ,
)

type parser struct {
	src string
	pos int
	tok token
	lit string
}

func (p *parser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch {
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		p.tok, p.lit = tokInt, p.src[start:p.pos]
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] == '_' ||
			p.src[p.pos] >= 'a' && p.src[p.pos] <= 'z' ||
			p.src[p.pos] >= 'A' && p.src[p.pos] <= 'Z' ||
			p.src[p.pos] >= '0' && p.src[p.pos] <= '9') {
			p.pos++
		}
		p.tok, p.lit = tokIdent, p.src[start:p.pos]
	case c == '(':
		p.pos++
		p.tok, p.lit = tokLParen, "("
	case c == ')':
		p.pos++
		p.tok, p.lit = tokRParen, ")"
	case c == ',':
		p.pos++
		p.tok, p.lit = tokComma, ","
	default:
		// Multi-character operators first.
		two := ""
		if p.pos+1 < len(p.src) {
			two = p.src[p.pos : p.pos+2]
		}
		switch two {
		case "==", "!=", "<=", ">=", "&&", "||":
			p.pos += 2
			p.tok, p.lit = tokOp, two
			return
		}
		switch c {
		case '+', '-', '*', '/', '%', '!', '<', '>':
			p.pos++
			p.tok, p.lit = tokOp, string(c)
		default:
			p.tok, p.lit = tokOp, string(c) // reported as unexpected by the parser
			p.pos++
		}
	}
}

func (p *parser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.lit == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: opOr, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (node, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && p.lit == "&&" {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (node, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.tok == tokOp {
		switch p.lit {
		case "==", "!=", "<", "<=", ">", ">=":
			op := binOps[p.lit]
			p.next()
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return &binNode{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseSum() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "+" || p.lit == "-") {
		op := binOps[p.lit]
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseTerm() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOp && (p.lit == "*" || p.lit == "/" || p.lit == "%") {
		op := binOps[p.lit]
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.tok == tokOp && (p.lit == "-" || p.lit == "!") {
		neg := p.lit == "-"
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{neg: neg, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	switch p.tok {
	case tokInt:
		v, err := strconv.ParseInt(p.lit, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p.lit)
		}
		p.next()
		return intNode(v), nil
	case tokIdent:
		name := p.lit
		p.next()
		if p.tok != tokLParen {
			if b, ok := builtinVars[name]; ok {
				return b, nil
			}
			return varNode(name), nil
		}
		// Function call.
		fn, ok := exprFuncs[name]
		if !ok {
			return nil, fmt.Errorf("unknown function %q", name)
		}
		p.next()
		var args []node
		if p.tok != tokRParen {
			for {
				a, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok != tokComma {
					break
				}
				p.next()
			}
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("missing ) after %s(", name)
		}
		p.next()
		if len(args) != fn.arity() {
			return nil, fmt.Errorf("%s takes %d argument(s), got %d", name, fn.arity(), len(args))
		}
		call := &callNode{fn: fn}
		copy(call.args[:], args)
		return call, nil
	case tokLParen:
		p.next()
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("missing )")
		}
		p.next()
		return n, nil
	case tokEOF:
		return nil, fmt.Errorf("unexpected end of expression")
	default:
		return nil, fmt.Errorf("unexpected %q", p.lit)
	}
}
