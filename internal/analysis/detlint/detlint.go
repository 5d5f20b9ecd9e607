// Package detlint enforces run-to-run determinism in the packages
// whose outputs are pinned bit-identical across engines: no wall-clock
// reads, no global math/rand, and no map iteration that writes into
// slice-shaped results without a subsequent sort.
//
// Election correctness under Yamashita–Kameda view equivalence demands
// exact canonical numbering; one nondeterministic map iteration or
// clock read silently voids the differential suites' guarantee
// (DESIGN.md §11).
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "forbid time.Now, global math/rand and unsorted map-iteration writes " +
		"in the determinism-critical packages (part, view, trie, advice, canon, classviews, sim)",
	Run: run,
}

// critical is the exact set of determinism-pinned packages. Subtrees
// are deliberately not included: internal/sim/shard owns real-time
// retry deadlines and seeded jitter by design.
var critical = map[string]bool{
	"repro/internal/part":       true,
	"repro/internal/view":       true,
	"repro/internal/trie":       true,
	"repro/internal/advice":     true,
	"repro/internal/canon":      true,
	"repro/internal/classviews": true,
	"repro/internal/sim":        true,
}

// randConstructors build explicitly seeded generators and are the
// sanctioned way to use math/rand in critical code.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !critical[pass.Pkg.Path()] {
		return nil
	}
	pass.InspectStack(func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		}
	})
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	isPkgLevel := fn.Type().(*types.Signature).Recv() == nil
	switch {
	case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock in a determinism-critical package; "+
				"outputs must be a pure function of the graph", name)
	case (path == "math/rand" || path == "math/rand/v2") && isPkgLevel && !randConstructors[name]:
		pass.Reportf(call.Pos(),
			"global %s.%s draws from process-shared randomness; "+
				"use an explicitly seeded *rand.Rand", path, name)
	}
}

// checkMapRange flags `for … := range m` over a map when the loop body
// appends to (or counter-indexes into) a slice declared outside the
// loop and no later statement in an enclosing block sorts that slice:
// the slice's element order then depends on map iteration order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	written := mapOrderWrites(pass, rng)
	if len(written) == 0 {
		return
	}
	for obj := range written {
		if sortedAfter(pass, rng, stack, obj) {
			delete(written, obj)
		}
	}
	for obj := range written {
		pass.Reportf(rng.For,
			"map iteration writes into %q in map order; sort it afterwards "+
				"(or annotate a commutative use with //lint:allow detlint <reason>)", obj.Name())
	}
}

// mapOrderWrites returns outer-declared slice variables whose element
// order the loop body makes depend on iteration order: append targets,
// and index-writes whose index is not derived from the loop key (a
// write s[k] = v at distinct keys commutes; s[i] = …; i++ does not).
func mapOrderWrites(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	outer := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
	}
	written := make(map[types.Object]bool)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			switch lhs := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				// s = append(s, …) with s declared outside the loop.
				obj := pass.TypesInfo.ObjectOf(lhs)
				if !outer(obj) || i >= len(asg.Rhs) {
					continue
				}
				if call, ok := ast.Unparen(asg.Rhs[i]).(*ast.CallExpr); ok && isAppendOf(pass, call, obj) {
					written[obj] = true
				}
			case *ast.IndexExpr:
				// s[i] = … with an index unrelated to the map key.
				base, ok := ast.Unparen(lhs.X).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(base)
				if !outer(obj) || !isSliceLike(obj) {
					continue
				}
				if !usesOnly(pass, lhs.Index, loopVars) {
					written[obj] = true
				}
			}
		}
		return true
	})
	return written
}

func isAppendOf(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(first) == obj
}

func isSliceLike(obj types.Object) bool {
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// usesOnly reports whether every variable mentioned by expr is in
// allowed (so an index k or k*2 commutes, while an outer counter i
// does not).
func usesOnly(pass *analysis.Pass, expr ast.Expr, allowed map[types.Object]bool) bool {
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, isIdent := n.(*ast.Ident); isIdent {
			if obj, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && !allowed[obj] {
				ok = false
			}
		}
		return true
	})
	return ok
}

// sortedAfter reports whether a statement after rng in one of its
// enclosing blocks passes obj to a sort/slices call.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		past := false
		for _, stmt := range block.List {
			if !past {
				past = containsNode(stmt, rng.Pos())
				continue
			}
			if callsSortOn(pass, stmt, obj) {
				return true
			}
		}
	}
	return false
}

func containsNode(stmt ast.Stmt, pos token.Pos) bool {
	return stmt.Pos() <= pos && pos < stmt.End()
}

func callsSortOn(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					mentioned = true
				}
				return true
			})
			if mentioned {
				found = true
			}
		}
		return true
	})
	return found
}
