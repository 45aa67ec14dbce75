package lint

// The fact store gives analyzers one call level of interprocedural
// sight without a real call graph: for every function declared in the
// package it records a few coarse behavioural facts (touches a
// sync.Pool, accumulates floats into shared memory). An analyzer looking
// at a call site can then ask "does the callee do X" instead of either
// re-walking the callee's body or giving up at the package boundary.
// Facts are computed once per package, before any analyzer runs.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncFacts are the per-function behaviour bits the analyzers consult.
type FuncFacts struct {
	// TouchesPool: the body calls Get or Put on a sync.Pool.
	TouchesPool bool
	// AccumulatesSharedFloat: the body has a float += / -= whose target
	// is not a plain function-local variable — a global, a dereference,
	// a field, or an element of a parameter/captured slice or map. Such
	// a function makes its caller's accumulation order observable.
	AccumulatesSharedFloat bool
}

// FactStore maps the package's declared functions (and methods) to
// their facts. Function literals are not entries: their bodies are
// visible at the use site, so analyzers inspect them directly.
type FactStore struct {
	funcs map[*types.Func]*FuncFacts
}

// ForCallee resolves a call expression to the facts of its callee, when
// the callee is a function or method declared in this package. Calls
// through interfaces, function values, and other packages return nil —
// one level deep means exactly the neighbours we have source for.
func (fs *FactStore) ForCallee(info *types.Info, call *ast.CallExpr) *FuncFacts {
	if fs == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fs.funcs[fn]
}

// computeFacts builds the store: every FuncDecl body (a FuncDecl is
// always a top-level declaration) is scanned once for the fact-relevant
// statement shapes.
func computeFacts(files []*ast.File, info *types.Info) *FactStore {
	fs := &FactStore{funcs: map[*types.Func]*FuncFacts{}}
	for _, file := range files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
				fs.funcs[fn] = scanBody(decl, info)
			}
		}
	}
	return fs
}

// scanBody derives one function's facts from its body.
func scanBody(decl *ast.FuncDecl, info *types.Info) *FuncFacts {
	f := &FuncFacts{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Get" || sel.Sel.Name == "Put") && isSyncPoolExpr(info, sel.X) {
				f.TouchesPool = true
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN {
				lhs := x.Lhs[0]
				if isFloat(info.TypeOf(lhs)) && !isLocalVar(info, decl, lhs) {
					f.AccumulatesSharedFloat = true
				}
			}
		}
		return true
	})
	return f
}

// isSyncPoolExpr reports whether e's type is sync.Pool or *sync.Pool.
func isSyncPoolExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// isLocalVar reports whether e is a plain identifier naming a variable
// declared inside decl's body (not a parameter, receiver, or outer
// binding). Accumulating into such a variable is invisible to callers.
func isLocalVar(info *types.Info, decl *ast.FuncDecl, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// Inside the body's position range and not a field or parameter.
	return !v.IsField() && v.Pos() >= decl.Body.Pos() && v.Pos() <= decl.Body.End()
}
