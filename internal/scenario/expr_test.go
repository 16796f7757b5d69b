package scenario

import (
	"math/rand"
	"strings"
	"testing"
)

func eval(t *testing.T, src string, env *Env) int64 {
	t.Helper()
	e, err := CompileExpr(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestExprArithmetic(t *testing.T) {
	env := &Env{I: 5, N: 16, It: 7, J: 3, Iters: 10, Locks: 30, Bars: 20}
	for _, tc := range []struct {
		src  string
		want int64
	}{
		{"1 + 2*3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3}, // Go truncating division
		{"-1 / 2", 0}, // truncation toward zero, like (i-1)/2 at i=0
		{"10 % 3", 1},
		{"i", 5},
		{"n - i", 11},
		{"(i + 1) % n", 6},
		{"it / 4 % n", 1},
		{"j % 2 == 0", 0},
		{"j % 2 != 0", 1},
		{"i < 8 && j >= 3", 1},
		{"i < 3 || j == 3", 1},
		{"!(i == 5)", 0},
		{"-i + 10", 5},
		{"1 + 2*(3 <= 4)", 3}, // comparisons are 0/1 values
		{"min(i, j)", 3},
		{"max(i, j)", 5},
		{"east(i)", 6},
		{"west(0)", 15},
		{"parent(0)", 0},
		{"parent(5)", 2},
		{"child(7, 0)", 15},
		{"child(7, 1)", 0}, // 16 wraps to 0
		{"locks", 30},
		{"bars", 20},
		{"iters", 10},
	} {
		if got := eval(t, tc.src, env); got != tc.want {
			t.Errorf("%q = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestExprMatchesGoSemantics(t *testing.T) {
	// The division/modulo behavior the legacy profiles depend on.
	env := &Env{N: 16}
	if got := eval(t, "(0 - 1) / 2", env); got != (0-1)/2 {
		t.Errorf("(0-1)/2 = %d, want %d", got, (0-1)/2)
	}
	if got := eval(t, "(0 - 1) % 5", env); got != (0-1)%5 {
		t.Errorf("(0-1)%%5 = %d, want %d", got, (0-1)%5)
	}
}

func TestExprRng(t *testing.T) {
	// rng(m) draws from the environment's source in evaluation order,
	// exactly like the profiles' b.Rng().Intn(m).
	env := &Env{N: 16, Rng: rand.New(rand.NewSource(42))}
	ref := rand.New(rand.NewSource(42))
	e, _ := CompileExpr("rng(n)")
	for k := 0; k < 10; k++ {
		got, err := e.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(ref.Intn(16)); got != want {
			t.Fatalf("draw %d: rng(n) = %d, want %d", k, got, want)
		}
	}
	if _, err := e.Eval(&Env{N: 0, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("rng(0) should error")
	}
	if _, err := e.Eval(&Env{N: 4}); err == nil {
		t.Error("rng without a source should error")
	}
}

func TestExprDefs(t *testing.T) {
	owner, err := CompileExpr("(it / 4) % n")
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{N: 16, It: 9, defs: map[string]*Expr{"owner": owner}}
	if got := eval(t, "owner + 1", env); got != 3 {
		t.Errorf("owner + 1 = %d, want 3", got)
	}
	// Defs may reference other defs, but cycles terminate with an error.
	self, _ := CompileExpr("loopy + 1")
	env.defs["loopy"] = self
	e, _ := CompileExpr("loopy")
	if _, err := e.Eval(env); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Errorf("cyclic def should exceed depth, got %v", err)
	}
}

func TestExprErrors(t *testing.T) {
	for _, src := range []string{
		"", "1 +", "(1", "1 ** 2", "foo(1)", "east()", "east(1, 2)",
		"child(1)", "1 2", "9999999999999999999999", "a b", "&& 1", "$x",
	} {
		if _, err := CompileExpr(src); err == nil {
			t.Errorf("CompileExpr(%q) should fail", src)
		}
	}
	env := &Env{N: 16}
	for _, src := range []string{"1 / 0", "1 % (i)", "nope", "k"} {
		e, err := CompileExpr(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := e.Eval(env); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestExprShortCircuit(t *testing.T) {
	// && must not evaluate its right side when the left is false — guards
	// like "n > 4 && rng(n - 4) == 0" rely on it.
	env := &Env{N: 2, Rng: rand.New(rand.NewSource(1))}
	if got := eval(t, "n > 4 && 1 / (n - 2) == 0", env); got != 0 {
		t.Errorf("short-circuit && = %d, want 0", got)
	}
	if got := eval(t, "n == 2 || 1 / (n - 2) == 0", env); got != 1 {
		t.Errorf("short-circuit || = %d, want 1", got)
	}
}

// TestExprEvalAllocsNothing pins the expression walk at zero allocations:
// operators and builtins are resolved at compile time, and calls evaluate
// their arguments into a fixed array.
func TestExprEvalAllocsNothing(t *testing.T) {
	e, err := CompileExpr("min(i, n - 1) + max(child(i, j % 2), rng(4)) * span - !(it < 3 || j == 0)")
	if err != nil {
		t.Fatal(err)
	}
	span, err := CompileExpr("max(k, 2) / 2")
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{I: 3, N: 16, It: 2, J: 1, Rng: rand.New(rand.NewSource(1)),
		defs: map[string]*Expr{"span": span}, loop: map[string]int64{"k": 5}}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Eval(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Expr.Eval: %v allocs per run, want 0", allocs)
	}
}
