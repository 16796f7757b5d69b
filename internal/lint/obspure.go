package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

func init() {
	Register(Check{
		Name: "obspure",
		Doc: "observer callbacks (noc.Observer implementations, protocol.Obs " +
			"hooks of the metrics and trace collectors, event-loop observers) must be pure: the " +
			"callgraph reachable from them may not call mutating sim APIs, " +
			"schedule events, or make calls the analyzer cannot resolve",
		RunModule: checkObsPure,
	})
}

// obsDeny maps module-relative callee keys ("relpkg.Recv.Method" or
// "relpkg.Func") to what makes them impure. A key that names no function
// would never match and guard nothing, so TestObsDenyKeysResolve requires
// every key to name a function or method the module declares.
var obsDeny = map[string]string{
	"internal/event.Sim.At":                "schedules an event",
	"internal/event.Sim.AtFn":              "schedules an event",
	"internal/event.Sim.After":             "schedules an event",
	"internal/event.Sim.AfterFn":           "schedules an event",
	"internal/event.Sim.Step":              "advances the simulation",
	"internal/event.Sim.Run":               "advances the simulation",
	"internal/event.Sim.SetObserver":       "re-wires observation mid-run",
	"internal/noc.Network.SendFn":          "injects network traffic",
	"internal/noc.Network.Broadcast":       "injects network traffic",
	"internal/noc.Network.SetObserver":     "re-wires observation mid-run",
	"internal/cache.Cache.Lookup":          "updates cache replacement state",
	"internal/cache.Cache.Insert":          "mutates cache contents",
	"internal/cache.Cache.Invalidate":      "mutates cache contents",
	"internal/protocol.System.send":        "injects a coherence message",
	"internal/protocol.System.sendAfter":   "injects a coherence message",
	"internal/protocol.System.transmit":    "injects a coherence message",
	"internal/protocol.System.dispatch":    "dispatches a coherence message",
	"internal/protocol.System.SetObserver": "re-wires observation mid-run",
	"internal/protocol.Node.Access":        "issues a memory access",
	"internal/protocol.Node.OnSync":        "injects a synchronization event",
	"internal/protocol.Node.handle":        "drives the protocol state machine",
	"internal/protocol.DirSlice.handle":    "drives the protocol state machine",
	"internal/snoop.Node.Access":           "issues a memory access",
	"internal/snoop.System.SetObserver":    "re-wires observation mid-run",
	"internal/cpu.Core.step":               "advances a core",
}

// obsWork is one function body queued for purity traversal.
type obsWork struct {
	body *ast.BlockStmt
	pkg  *Package
	path string // human-readable chain from the observer root
}

// obsGraph performs the reachability walk.
type obsGraph struct {
	mp      *ModulePass
	decls   map[*types.Func]obsDecl
	visited map[*types.Func]bool
	seenLit map[*ast.FuncLit]bool
	queue   []obsWork
}

type obsDecl struct {
	fd  *ast.FuncDecl
	pkg *Package
}

// checkObsPure collects observer roots from the matched packages and walks
// every statically resolvable call from them, failing on calls into the
// deny list and on calls it cannot resolve (purity must be provable).
func checkObsPure(mp *ModulePass) error {
	g := &obsGraph{
		mp:      mp,
		decls:   make(map[*types.Func]obsDecl),
		visited: make(map[*types.Func]bool),
		seenLit: make(map[*ast.FuncLit]bool),
	}
	for _, pkg := range mp.Loaded() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						g.decls[fn] = obsDecl{fd: fd, pkg: pkg}
					}
				}
			}
		}
	}
	g.collectRoots()
	for len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.walkBody(w)
	}
	return nil
}

// collectRoots finds the three observer entry families: implementations of
// the noc Observer interface, function-typed fields of module Obs hook
// literals, and arguments of SetObserver calls.
func (g *obsGraph) collectRoots() {
	iface := g.observerInterface()
	for _, pkg := range g.mp.Pkgs {
		if iface != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				T := tn.Type()
				if types.IsInterface(T) {
					continue
				}
				if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						g.enqueueFunc(fn, fmt.Sprintf("%s.%s (noc.Observer)", name, m.Name()))
					}
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					named, ok := pkg.Info.TypeOf(n).(*types.Named)
					if !ok || named.Obj().Name() != "Obs" ||
						named.Obj().Pkg() == nil || !inModule(named.Obj().Pkg().Path(), g.mp.ModPath) {
						return true
					}
					for _, elt := range n.Elts {
						field, value := "hook", elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								field = id.Name
							}
							value = kv.Value
						}
						g.enqueueExpr(pkg, value, fmt.Sprintf("%s.Obs.%s hook", named.Obj().Pkg().Name(), field))
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "SetObserver" || len(n.Args) == 0 {
						return true
					}
					fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil || !inModule(fn.Pkg().Path(), g.mp.ModPath) {
						return true
					}
					g.enqueueExpr(pkg, n.Args[0], fmt.Sprintf("%s.SetObserver argument", fn.Pkg().Name()))
				}
				return true
			})
		}
	}
}

// observerInterface resolves the module's noc Observer interface, if loaded.
func (g *obsGraph) observerInterface() *types.Interface {
	pkg := g.mp.Lookup(g.mp.ModPath + "/internal/noc")
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Types.Scope().Lookup("Observer").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// enqueueExpr queues the function an expression evaluates to: a literal's
// body directly, or a named function/method via its declaration.
func (g *obsGraph) enqueueExpr(pkg *Package, e ast.Expr, root string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if !g.seenLit[e] {
			g.seenLit[e] = true
			g.queue = append(g.queue, obsWork{body: e.Body, pkg: pkg, path: root})
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			g.enqueueFunc(fn, root)
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			g.enqueueFunc(fn, root)
		}
	}
}

func (g *obsGraph) enqueueFunc(fn *types.Func, path string) {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	if g.visited[fn] {
		return
	}
	g.visited[fn] = true
	if d, ok := g.decls[fn]; ok {
		g.queue = append(g.queue, obsWork{body: d.fd.Body, pkg: d.pkg, path: path})
	}
}

// walkBody inspects one reachable body: every call must resolve statically
// to either a builtin, a non-module function, or a module function outside
// the deny list (which is then traversed in turn).
func (g *obsGraph) walkBody(w obsWork) {
	ast.Inspect(w.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			g.checkCall(w, n)
		case *ast.FuncLit:
			// A literal not in call position may still run in observer
			// context (passed as a callback); traverse it too.
			if !g.seenLit[n] {
				g.seenLit[n] = true
				g.queue = append(g.queue, obsWork{body: n.Body, pkg: w.pkg, path: w.path})
			}
		}
		return true
	})
}

func (g *obsGraph) checkCall(w obsWork, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.pkg.Info.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		if !g.seenLit[fun] {
			g.seenLit[fun] = true
			g.queue = append(g.queue, obsWork{body: fun.Body, pkg: w.pkg, path: w.path})
		}
		return
	case *ast.Ident:
		g.checkCallee(w, call, w.pkg.Info.Uses[fun])
		return
	case *ast.SelectorExpr:
		g.checkCallee(w, call, w.pkg.Info.Uses[fun.Sel])
		return
	}
	g.mp.Report(call.Pos(), "obspure",
		fmt.Sprintf("observer callback (via %s) makes a dynamic call that cannot be proven pure", w.path))
}

func (g *obsGraph) checkCallee(w obsWork, call *ast.CallExpr, obj types.Object) {
	switch obj := obj.(type) {
	case *types.Builtin, *types.TypeName, *types.Nil:
		return
	case *types.Var:
		// A func-typed variable or field: dynamic dispatch.
		g.mp.Report(call.Pos(), "obspure",
			fmt.Sprintf("observer callback (via %s) calls func value %s, which cannot be proven pure", w.path, obj.Name()))
		return
	case *types.Func:
		key, label := calleeKey(obj, g.mp.ModPath)
		if key == "" {
			return // outside the module: cannot touch the sim
		}
		if reason, bad := obsDeny[key]; bad {
			g.mp.Report(call.Pos(), "obspure",
				fmt.Sprintf("observer callback (via %s) calls %s, which %s", w.path, label, reason))
			return
		}
		if recvIsInterface(obj) {
			g.mp.Report(call.Pos(), "obspure",
				fmt.Sprintf("observer callback (via %s) calls %s through an interface, which cannot be proven pure", w.path, label))
			return
		}
		g.enqueueFunc(obj, w.path+" -> "+label)
	}
}

// calleeKey renders a module function as its deny-list key and a display
// label; the key is empty for non-module callees.
func calleeKey(fn *types.Func, modPath string) (key, label string) {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	pkg := fn.Pkg()
	if pkg == nil || !inModule(pkg.Path(), modPath) {
		return "", ""
	}
	rel := strings.TrimPrefix(pkg.Path(), modPath+"/")
	if pkg.Path() == modPath {
		rel = "."
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	return rel + "." + name, pkg.Name() + "." + name
}

func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
