package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatAccum reports floating-point accumulation (`+=`, `-=`) inside a
// `go` statement's function literal when the target is shared memory:
// a variable captured from the enclosing function, a package-level
// variable, or an element of a captured slice indexed by something the
// goroutine does not own. Concurrent goroutines interleave such
// accumulations in scheduler order, and float addition does not
// associate — the sum changes with the worker count, which breaks
// DASC's workers-invariant numerics (the Gram engine, k-means partial
// sums, and every reduction the byte-identical-labels test pins).
//
// The deterministic idiom — each worker accumulating into its own slot
// (`partials[w] += x` where w is the worker id bound inside or passed
// into the literal) and a sequential fold afterwards — is recognized
// and not flagged.
//
// One call level deep: a goroutine body calling a function declared in
// the same package that itself accumulates floats into shared state
// (per the fact store) is flagged at the call site.
var FloatAccum = &Analyzer{
	Name: "floataccum",
	Doc: "reject float += into shared memory inside goroutines; " +
		"scheduler order changes the sum across worker counts — use " +
		"per-worker slots and a sequential fold",
	Run: runFloatAccum,
}

func runFloatAccum(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if gostmt, ok := n.(*ast.GoStmt); ok {
				if lit, ok := gostmt.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineBody(pass, lit)
				}
			}
			return true
		})
	}
}

// checkGoroutineBody scans one goroutine literal for shared float
// accumulation, directly and one call deep.
func checkGoroutineBody(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.ADD_ASSIGN && x.Tok != token.SUB_ASSIGN {
				return true
			}
			lhs := x.Lhs[0]
			if !isFloat(pass.Info.TypeOf(lhs)) {
				return true
			}
			if target := sharedFloatTarget(pass, lhs, lit); target != "" {
				pass.Reportf(x.Pos(),
					"floating-point accumulation into %s inside a goroutine; the sum depends on scheduler order — accumulate into a per-worker slot and fold sequentially", target)
			}
		case *ast.CallExpr:
			facts := pass.Facts.ForCallee(pass.Info, x)
			if facts != nil && facts.AccumulatesSharedFloat {
				pass.Reportf(x.Pos(),
					"call inside a goroutine to a function that accumulates floats into shared state; the result depends on scheduler order")
			}
		}
		return true
	})
}

// sharedFloatTarget classifies the accumulation target; it returns a
// description of the shared memory, or "" when the target is
// goroutine-owned.
func sharedFloatTarget(pass *Pass, lhs ast.Expr, lit *ast.FuncLit) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := identVar(pass, x)
		if !ok {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return "package variable " + v.Name()
		}
		if definedWithin(v, lit) {
			return "" // the goroutine's own accumulator
		}
		return "captured variable " + v.Name()
	case *ast.IndexExpr:
		// arr[i] += v: owned iff the index is a variable bound inside
		// the literal (worker id, local loop var). A captured or
		// constant index means every goroutine hits the same slots.
		base := rootObject(pass, x.X)
		bv, ok := base.(*types.Var)
		if !ok {
			return ""
		}
		if definedWithin(bv, lit) {
			return "" // goroutine-local slice
		}
		if indexOwned(pass, x.Index, lit) {
			return ""
		}
		return "shared element " + exprString(x)
	case *ast.SelectorExpr:
		base := rootObject(pass, x.X)
		bv, ok := base.(*types.Var)
		if !ok {
			return ""
		}
		if definedWithin(bv, lit) && !isPointer(bv.Type()) {
			return ""
		}
		return "shared field " + exprString(x)
	case *ast.StarExpr:
		return "shared memory " + exprString(x)
	}
	return ""
}

// identVar resolves an identifier to its variable object.
func identVar(pass *Pass, id *ast.Ident) (*types.Var, bool) {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// definedWithin reports whether v is declared inside the literal
// (including its parameters) — i.e. the goroutine owns it.
func definedWithin(v *types.Var, lit *ast.FuncLit) bool {
	return v.Pos() >= lit.Pos() && v.Pos() <= lit.End()
}

// indexOwned reports whether every variable mentioned by the index
// expression is bound inside the literal, making the indexed slot
// goroutine-private by construction (per-worker partials).
func indexOwned(pass *Pass, index ast.Expr, lit *ast.FuncLit) bool {
	owned := true
	sawVar := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, isVar := identVar(pass, id)
		if !isVar {
			return true
		}
		sawVar = true
		if !definedWithin(v, lit) {
			owned = false
		}
		return owned
	})
	return owned && sawVar
}

// isPointer reports whether t is a pointer type.
func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// exprString renders a short source-ish form of e for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
