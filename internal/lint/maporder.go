package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder reports `range` over a map whose body makes iteration order
// observable: appending to a slice that outlives the loop, writing
// through a loop-varying index, or accumulating floating-point values.
// Map iteration order is randomized per run, so any of these leaks
// nondeterminism into the output — the exact failure mode that would
// break DASC's byte-identical-labels invariant if a histogram or stats
// path ranged a map straight into a report.
//
// The canonical fix — collect the keys, sort, iterate the sorted
// slice — is recognized: an append target that is later passed to a
// sort.* or slices.Sort* call (or to sortPairs-style helpers whose name
// starts with "sort"/"Sort") in the same function is not flagged.
// Integer/boolean accumulation (counters, max tracking) is
// order-independent and never flagged; float accumulation is flagged
// because float addition does not associate.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "reject map range loops whose body appends, writes indexed " +
		"output, or accumulates floats — map order is random; sort the " +
		"keys first",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			var fnBody *ast.BlockStmt // nil at package scope
			if fn, ok := decl.(*ast.FuncDecl); ok {
				fnBody = fn.Body
			}
			checkMapRanges(pass, decl, fnBody)
		}
	}
}

// checkMapRanges checks every map range under root against fnBody, the
// body of the innermost function enclosing root (nil at package scope).
// Each function literal is checked against its own body.
func checkMapRanges(pass *Pass, root ast.Node, fnBody *ast.BlockStmt) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkMapRanges(pass, x.Body, x.Body)
			return false
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapRangeBody(pass, x, fnBody)
				}
			}
		}
		return true
	})
}

// checkMapRangeBody flags the order-observable statement shapes inside
// one map-range body.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a deferred/stored closure runs outside the loop
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				if i < len(as.Lhs) && sortedAfter(pass, as.Lhs[i], rng, fnBody) {
					continue
				}
				pass.Reportf(as.Pos(),
					"append inside a map range makes iteration order observable; collect and sort the keys first")
			}
			// Indexed writes: out[i] = v with a loop-varying index makes
			// element order follow map order. The scatter-by-key idiom
			// out[k] = f(k, v) with k exactly the range key is allowed:
			// map keys are unique, so each slot is written at most once
			// and order cannot matter.
			if as.Tok == token.ASSIGN {
				for _, lhs := range as.Lhs {
					idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if isMapIndex(pass, idx) {
						continue // writing into another map is order-free
					}
					if isRangeKey(pass, idx.Index, rng) {
						continue // keyed scatter: one write per unique key
					}
					if !loopVarying(pass, idx.Index, rng) {
						continue
					}
					if sortedAfter(pass, idx.X, rng, fnBody) {
						continue
					}
					pass.Reportf(lhs.Pos(),
						"indexed write with a loop-varying index inside a map range depends on iteration order; sort the keys first")
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := as.Lhs[0]
			if isFloat(pass.Info.TypeOf(lhs)) && !isMapIndexExpr(pass, lhs) {
				pass.Reportf(as.Pos(),
					"floating-point accumulation inside a map range is order-dependent (float ops do not associate); sort the keys first")
			}
		}
		return true
	})
}

// isMapIndex reports whether idx indexes a map (m[k] = v), which is
// order-insensitive, as opposed to a slice/array position.
func isMapIndex(pass *Pass, idx *ast.IndexExpr) bool {
	t := pass.Info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isMapIndexExpr reports whether e is a map index expression.
func isMapIndexExpr(pass *Pass, e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	return ok && isMapIndex(pass, idx)
}

// isRangeKey reports whether the index expression is exactly the
// range statement's key variable. The range value does not qualify:
// values repeat across keys, so out[v] = x is last-writer-wins in map
// order.
func isRangeKey(pass *Pass, index ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := ast.Unparen(index).(*ast.Ident)
	if !ok {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	keyObj := pass.Info.Defs[key]
	if keyObj == nil {
		keyObj = pass.Info.Uses[key]
	}
	return keyObj != nil && pass.Info.Uses[id] == keyObj
}

// loopVarying reports whether the index expression can change between
// iterations: it mentions the range's key/value variables or any
// non-constant identifier assigned inside the loop body (a manual
// cursor like i++). A fixed index writes the same slot every iteration
// — last-writer-wins nondeterminism is the map value's problem, which
// range variables already cover.
func loopVarying(pass *Pass, index ast.Expr, rng *ast.RangeStmt) bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	// Identifiers mutated inside the body (i++ cursors, k = k+1).
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					vars[obj] = true
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						vars[obj] = true
					}
				}
			}
		}
		return true
	})
	varying := false
	ast.Inspect(index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if vars[pass.Info.Uses[id]] {
				varying = true
			}
		}
		return !varying
	})
	return varying
}

// sortedAfter reports whether dest (a slice-valued expression) is later
// passed — directly or by address — to a sorting call within the same
// function: sort.*/slices.Sort*, or any function whose name begins with
// "sort"/"Sort" (project helpers like sortPairs). The check is lexical:
// only calls after the range statement count.
func sortedAfter(pass *Pass, dest ast.Expr, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if fnBody == nil {
		return false
	}
	obj := rootObject(pass, dest)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			a := ast.Unparen(arg)
			if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
				a = ast.Unparen(u.X)
			}
			// sort.Sort(byLen(keys)): unwrap a single-argument
			// conversion around the destination.
			if conv, ok := a.(*ast.CallExpr); ok && len(conv.Args) == 1 {
				a = ast.Unparen(conv.Args[0])
			}
			if rootObject(pass, a) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rootObject resolves the base identifier of an expression chain
// (x, x.f, x[i] → object of x).
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSortCall recognizes sort.X(...), slices.SortX(...), and local
// helpers named sort*/Sort*.
func isSortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
			return true
		}
		return hasSortPrefix(fun.Sel.Name)
	case *ast.Ident:
		return hasSortPrefix(fun.Name)
	}
	return false
}

func hasSortPrefix(name string) bool {
	return len(name) >= 4 && (name[:4] == "sort" || name[:4] == "Sort")
}
