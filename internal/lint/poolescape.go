package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape guards the pooled-scratch discipline of the Gram and
// Lanczos engines: a value obtained from sync.Pool.Get is on loan, and
// letting it escape the borrowing function — returned, stored into a
// struct field or package variable, or sent on a channel — means the
// pool and the escapee can alias the same backing memory, the exact
// corruption class a dirty reused buffer produces. Also flagged are
// Put calls whose argument is not the original loan: Put(append(...))
// may pool a reallocated copy while the grown original leaks, and
// Put(x[i:]) pools a slice whose head is gone, so the next Get sees a
// shifted window over memory another borrower may still hold.
//
// Deliberate ownership transfer (a get-helper returning the pool token
// for the caller to Put) is a legitimate pattern; such sites carry a
// //lint:ignore poolescape with the ownership contract spelled out.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "reject sync.Pool.Get values that escape (return/store/send) " +
		"and Put of append/re-sliced buffers; pooled scratch is a loan",
	Run: runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			// The fact store knows which functions touch a pool; skip the
			// rest without walking them.
			if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
				if facts := pass.Facts.funcs[fn]; facts != nil && !facts.TouchesPool {
					continue
				}
			}
			checkPoolUse(pass, decl.Body)
		}
	}
}

// checkPoolUse tracks Get loans and flags escapes and bad Puts within
// one function body.
func checkPoolUse(pass *Pass, body *ast.BlockStmt) {
	loans := map[types.Object]bool{}

	// First pass: find `v := pool.Get()` and `v := pool.Get().(T)`.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isPoolGet(pass, rhs) || i >= len(as.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.Defs[id]; obj != nil {
					loans[obj] = true
				} else if obj := pass.Info.Uses[id]; obj != nil {
					loans[obj] = true
				}
			}
		}
		return true
	})

	// Second pass: escapes of loans and malformed Puts.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := loanedObject(pass, res, loans); obj != nil {
					pass.Reportf(res.Pos(),
						"pooled value %s (from sync.Pool.Get) is returned; the loan escapes its borrower — Put it here or document the ownership transfer", obj.Name())
				}
			}
		case *ast.SendStmt:
			if obj := loanedObject(pass, x.Value, loans); obj != nil {
				pass.Reportf(x.Value.Pos(),
					"pooled value %s (from sync.Pool.Get) is sent on a channel; the loan escapes its borrower", obj.Name())
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				return true
			}
			for i, rhs := range x.Rhs {
				obj := loanedObject(pass, rhs, loans)
				if obj == nil || i >= len(x.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(x.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					pass.Reportf(rhs.Pos(),
						"pooled value %s (from sync.Pool.Get) is stored in field %s; the loan outlives its borrower", obj.Name(), lhs.Sel.Name)
				case *ast.Ident:
					if v, ok := identVar(pass, lhs); ok && v.Parent() == v.Pkg().Scope() {
						pass.Reportf(rhs.Pos(),
							"pooled value %s (from sync.Pool.Get) is stored in package variable %s; the loan outlives its borrower", obj.Name(), v.Name())
					}
				case *ast.IndexExpr:
					pass.Reportf(rhs.Pos(),
						"pooled value %s (from sync.Pool.Get) is stored in a container; the loan outlives its borrower", obj.Name())
				}
			}
		case *ast.CallExpr:
			checkPut(pass, x)
		}
		return true
	})
}

// checkPut flags Put arguments that are not the original loan token.
func checkPut(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || !isSyncPoolExpr(pass.Info, sel.X) {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	switch arg := ast.Unparen(call.Args[0]).(type) {
	case *ast.CallExpr:
		if id, ok := arg.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(arg.Pos(),
					"Put(append(...)): append may reallocate, pooling a different buffer than the loan; Put the original and re-slice after Get")
			}
		}
	case *ast.SliceExpr:
		if arg.Low != nil && !isZeroLiteral(arg.Low) {
			pass.Reportf(arg.Pos(),
				"Put of a re-sliced buffer drops its head; the next Get sees a shifted window over memory another borrower may hold")
		}
	}
}

// isPoolGet reports whether e is pool.Get() or pool.Get().(T) for a
// sync.Pool-typed pool.
func isPoolGet(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	return isSyncPoolExpr(pass.Info, sel.X)
}

// loanedObject reports the loan behind e when e is a loaned identifier
// or a slice/dereference view of one ((*p)[:n], p, *p). A view still
// aliases the pooled backing array, so it escapes just the same.
func loanedObject(pass *Pass, e ast.Expr, loans map[types.Object]bool) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj != nil && loans[obj] {
			return obj
		}
	case *ast.SliceExpr:
		return loanedObject(pass, x.X, loans)
	case *ast.StarExpr:
		return loanedObject(pass, x.X, loans)
	}
	return nil
}

// isZeroLiteral reports whether e is the literal 0.
func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}
