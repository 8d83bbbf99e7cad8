// Package poolescape checks the sync.Pool buffer discipline of the hot
// ingest paths (docs/ANALYSIS.md §poolescape).  The PR 6 pools — the
// fanout's *[]E batch buffers, the server's chunk and edge-conversion
// buffers — are only sound because a pooled buffer has exactly one owner
// at a time: Get hands it to the caller, Put ends the ownership, and
// nothing touches it in between the Put and the next Get.  The analyzer
// enforces, per function and in source order:
//
//   - no use after Put: once a buffer expression is passed to
//     (*sync.Pool).Put — or to a put-wrapper, any function in the package
//     that forwards a parameter to Put, like the server's putEdgeBuf —
//     every later use of that expression is flagged until the expression
//     (or its root variable) is rebound;
//
//   - no double Put: a second Put of the same expression without a
//     rebinding in between is flagged;
//
//   - no escape to package state: assigning a Get result (direct, or via
//     a get-wrapper such as the fanout's newBuf) to a package-level
//     variable gives the buffer a second long-lived owner and is flagged.
//     Returning a pooled buffer is the Get-wrapper idiom and stays legal;
//     the wrapper's caller inherits the obligation;
//
//   - no alias past the Put: in a function that Puts a pooled buffer
//     (deferred or not), memory aliasing the buffer's contents — a
//     method result of slice type such as buf.Bytes(), a slicing or
//     dereference of the buffer, append onto one of those, or a local
//     bound to any of them — must not be placed in a composite literal,
//     returned, or stored anywhere but back into the buffer.  Such a
//     value outlives the Put, and the next Get rewrites it: the class of
//     a cached response body built in a pooled encode buffer.  Copy the
//     bytes out first (bytes.Clone, append onto nil).
//
// Statements inside defer are exempt from the kill/use tracking: the
// canonical `defer func() { *buf = (*buf)[:0]; pool.Put(buf) }()` reset
// runs at function exit, after every textual use.  The analysis is
// linear in source order and does not model loops; a use that precedes
// its Put textually but follows it dynamically needs a human, not this
// checker.
package poolescape

import (
	"go/ast"
	"go/types"
	"strings"

	"feww/internal/analysis"
)

// Analyzer is the poolescape checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "flags sync.Pool buffers used after Put, double-Put, or stored into package state",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	putWrappers, getWrappers := classifyWrappers(pass)
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		checkFunc(pass, fd, putWrappers, getWrappers)
	})
	return nil
}

// isPool reports whether t is sync.Pool (behind pointers).
func isPool(t types.Type) bool { return analysis.IsNamed(t, "sync", "Pool") }

// calleeOf resolves the called function object, if any.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// classifyWrappers finds the package's put-wrappers (functions that
// forward a parameter to (*sync.Pool).Put; the map carries the parameter
// index) and get-wrappers (functions whose body calls (*sync.Pool).Get
// and that return a value).
func classifyWrappers(pass *analysis.Pass) (map[*types.Func]int, map[*types.Func]bool) {
	puts := make(map[*types.Func]int)
	gets := make(map[*types.Func]bool)
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		params := make(map[types.Object]int)
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = len(params)
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name := analysis.ReceiverOf(call)
			if recv == nil || !isPool(pass.TypesInfo.TypeOf(recv)) {
				return true
			}
			switch name {
			case "Put":
				if len(call.Args) == 1 {
					if root := analysis.RootIdent(call.Args[0]); root != nil {
						if idx, ok := params[pass.TypesInfo.Uses[root]]; ok {
							puts[fn] = idx
						}
					}
				}
			case "Get":
				if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
					gets[fn] = true
				}
			}
			return true
		})
	})
	return puts, gets
}

// event kinds collected in source order.
type eventKind int

const (
	evKill   eventKind = iota // Put of a buffer expression
	evRebind                  // assignment to the expression or its root
	evUse                     // any other appearance of the expression
)

type event struct {
	kind eventKind
	pos  int // source offset for ordering
	node ast.Node
}

// checkFunc runs the per-function discipline checks.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, putWrappers map[*types.Func]int, getWrappers map[*types.Func]bool) {
	deferred := deferredNodes(fd)

	// poolDerived tracks locals bound to Get results or get-wrapper
	// results, for the escape rule.
	poolDerived := make(map[types.Object]bool)
	isDerived := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			if recv, name := analysis.ReceiverOf(e); recv != nil && name == "Get" && isPool(pass.TypesInfo.TypeOf(recv)) {
				return true
			}
			return getWrappers[calleeOf(pass, e)]
		case *ast.TypeAssertExpr:
			return isDerivedExprCall(pass, e.X, getWrappers)
		case *ast.Ident:
			return poolDerived[pass.TypesInfo.Uses[e]]
		}
		return false
	}

	// kills maps a buffer expression string to its kill events.
	kills := make(map[string][]*ast.CallExpr)

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !isDerived(n.Rhs[i]) {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						poolDerived[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						if obj.Parent() == pass.Pkg.Scope() {
							pass.Reportf(lhs.Pos(),
								"pooled buffer stored into package-level %s; pool buffers must not outlive their request",
								analysis.ExprString(lhs))
							continue
						}
						poolDerived[obj] = true
					}
					continue
				}
				if root := analysis.RootIdent(lhs); root != nil {
					obj := pass.TypesInfo.Uses[root]
					if obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(lhs.Pos(),
							"pooled buffer stored into package-level %s; pool buffers must not outlive their request",
							analysis.ExprString(lhs))
					}
				}
			}
		case *ast.CallExpr:
			if deferred[n] {
				return true
			}
			if expr, ok := putArgument(pass, n, putWrappers); ok {
				kills[analysis.ExprString(expr)] = append(kills[analysis.ExprString(expr)], n)
			}
		}
		return true
	})

	checkAliasEscape(pass, fd, poolDerived, putWrappers)

	if len(kills) == 0 {
		return
	}

	// For each killed expression, order kills / rebinds / uses by
	// position and flag uses and re-kills in a dead window.
	for exprStr, killCalls := range kills {
		var events []event
		for _, kc := range killCalls {
			events = append(events, event{evKill, int(kc.Pos()), kc})
		}
		root := exprStr
		if i := strings.IndexAny(exprStr, ".["); i > 0 {
			root = exprStr[:i]
		}
		isKill := make(map[ast.Node]bool, len(killCalls))
		for _, kc := range killCalls {
			isKill[kc] = true
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if deferred[n] {
				return false
			}
			if isKill[n] {
				return false // the Put's own argument is not a use
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					ls := normalize(analysis.ExprString(lhs))
					if ls == exprStr || ls == root {
						events = append(events, event{evRebind, int(lhs.Pos()), lhs})
					}
				}
			case *ast.RangeStmt:
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if lhs == nil {
						continue
					}
					ls := normalize(analysis.ExprString(lhs))
					if ls == exprStr || ls == root {
						events = append(events, event{evRebind, int(lhs.Pos()), lhs})
					}
				}
			case ast.Expr:
				if matchesUse(normalize(analysis.ExprString(n)), exprStr) {
					events = append(events, event{evUse, int(n.Pos()), n})
					return false // do not double-count sub-expressions
				}
			}
			return true
		})
		flagWindow(pass, exprStr, events)
	}
}

// flagWindow walks the position-sorted events and reports uses and
// double-Puts inside a kill window.
func flagWindow(pass *analysis.Pass, exprStr string, events []event) {
	// Insertion sort by position (event counts are tiny).
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	var killed *ast.CallExpr
	for _, ev := range events {
		switch ev.kind {
		case evKill:
			call := ev.node.(*ast.CallExpr)
			if killed != nil {
				pass.Reportf(call.Pos(), "double Put of pooled buffer %s (first Put at %s)",
					exprStr, pass.Fset.Position(killed.Pos()))
				continue
			}
			killed = call
		case evRebind:
			killed = nil
		case evUse:
			if killed != nil && ev.pos > int(killed.End()) {
				pass.Reportf(ev.node.Pos(), "pooled buffer %s used after Put (Put at %s)",
					exprStr, pass.Fset.Position(killed.Pos()))
			}
		}
	}
}

// putArgument returns the buffer expression a call kills: the argument
// of (*sync.Pool).Put, or the pooled parameter of a put-wrapper call.
func putArgument(pass *analysis.Pass, call *ast.CallExpr, putWrappers map[*types.Func]int) (ast.Expr, bool) {
	if recv, name := analysis.ReceiverOf(call); recv != nil && name == "Put" && isPool(pass.TypesInfo.TypeOf(recv)) {
		if len(call.Args) == 1 {
			return call.Args[0], true
		}
		return nil, false
	}
	if idx, ok := putWrappers[calleeOf(pass, call)]; ok && idx < len(call.Args) {
		return call.Args[idx], true
	}
	return nil, false
}

// deferredNodes marks every node inside a defer statement (the deferred
// call and, for a deferred closure, its whole body).
func deferredNodes(fd *ast.FuncDecl) map[ast.Node]bool {
	marked := make(map[ast.Node]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if m != nil {
				marked[m] = true
			}
			return true
		})
		return true
	})
	return marked
}

// normalize strips leading dereferences and parentheses from an
// expression string so *buf matches a kill of buf.
func normalize(s string) string {
	for strings.HasPrefix(s, "*") || strings.HasPrefix(s, "(") {
		s = strings.TrimPrefix(s, "*")
		s = strings.TrimPrefix(s, "(")
		s = strings.TrimSuffix(s, ")")
	}
	return s
}

// matchesUse reports whether a normalized expression string reads the
// killed buffer: the expression itself, or a path reaching through it.
func matchesUse(use, killed string) bool {
	return use == killed ||
		strings.HasPrefix(use, killed+".") ||
		strings.HasPrefix(use, killed+"[")
}

// isDerivedExprCall helps isDerived see through x.(T) type assertions on
// Get results.
func isDerivedExprCall(pass *analysis.Pass, e ast.Expr, getWrappers map[*types.Func]bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if recv, name := analysis.ReceiverOf(call); recv != nil && name == "Get" && isPool(pass.TypesInfo.TypeOf(recv)) {
		return true
	}
	return getWrappers[calleeOf(pass, call)]
}

// checkAliasEscape flags contents of a pooled buffer that leave a
// function which also returns the buffer to its pool (see the package
// doc's alias rule).  pooled holds the function's locals bound to Get
// or get-wrapper results.
func checkAliasEscape(pass *analysis.Pass, fd *ast.FuncDecl, pooled map[types.Object]bool, putWrappers map[*types.Func]int) {
	// The pooled locals this function Puts, deferred Puts included: an
	// alias escaping the function dangles either way.
	put := make(map[types.Object]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if expr, ok := putArgument(pass, call, putWrappers); ok {
				if root := analysis.RootIdent(expr); root != nil && pooled[pass.TypesInfo.Uses[root]] {
					put[pass.TypesInfo.Uses[root]] = true
				}
			}
		}
		return true
	})
	if len(put) == 0 {
		return
	}
	aliases := make(map[types.Object]types.Object) // local -> pooled buffer it aliases
	var aliasOf func(e ast.Expr) types.Object
	aliasOf = func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return aliasOf(e.X)
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if put[obj] {
				return nil // the buffer handle itself: the other rules own it
			}
			return aliases[obj]
		case *ast.StarExpr:
			if root := analysis.RootIdent(e.X); root != nil && put[pass.TypesInfo.Uses[root]] {
				if _, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); ok {
					return pass.TypesInfo.Uses[root]
				}
			}
			return aliasOf(e.X)
		case *ast.SliceExpr:
			if root := analysis.RootIdent(e.X); root != nil && put[pass.TypesInfo.Uses[root]] {
				return pass.TypesInfo.Uses[root]
			}
			return aliasOf(e.X)
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
					return aliasOf(e.Args[0])
				}
			}
			recv, _ := analysis.ReceiverOf(e)
			if recv == nil {
				return nil
			}
			if root := analysis.RootIdent(recv); root != nil && put[pass.TypesInfo.Uses[root]] {
				if _, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); ok {
					return pass.TypesInfo.Uses[root]
				}
			}
		}
		return nil
	}
	report := func(e ast.Expr, buf types.Object) {
		pass.Reportf(e.Pos(), "%s aliases pooled buffer %s past its Put; copy the bytes out first",
			analysis.ExprString(e), buf.Name())
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				buf := aliasOf(n.Rhs[i])
				if buf == nil {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil && obj.Parent() != pass.Pkg.Scope() {
						aliases[obj] = buf // a local alias: tracked, not yet an escape
						continue
					}
				}
				if root := analysis.RootIdent(lhs); root != nil && pass.TypesInfo.Uses[root] == buf {
					continue // stored back into the buffer itself
				}
				report(n.Rhs[i], buf)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if buf := aliasOf(elt); buf != nil {
					report(elt, buf)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if buf := aliasOf(res); buf != nil {
					report(res, buf)
				}
			}
		}
		return true
	})
}
