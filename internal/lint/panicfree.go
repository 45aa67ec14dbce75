package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicFree reports panic calls in library (internal/...) packages.
// A panic in a worker goroutine or a reducer takes down the whole job
// with a stack trace instead of an error the master can act on, so
// library code must return errors. The only sanctioned panics are the
// designated invariant helpers in internal/matrix — matrix.Panicf and
// the unexported bounds helpers whose names start with "check" — which
// express programmer-error contracts (negative dimensions, mismatched
// lengths) that are bugs at the call site, not runtime conditions.
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc: "reject panic in library packages outside the designated " +
		"invariant helpers in internal/matrix (Panicf and check* funcs)",
	Run: runPanicFree,
}

// panicAllowed reports whether funcName in pkgPath is a designated
// invariant helper.
func panicAllowed(pkgPath, funcName string) bool {
	if !strings.HasSuffix(pkgPath, "/internal/matrix") {
		return false
	}
	return funcName == "Panicf" || strings.HasPrefix(funcName, "check")
}

func runPanicFree(pass *Pass) {
	if !strings.Contains(pass.Path, "/internal/") {
		return // commands and examples may crash; libraries may not
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// The invariant-helper waiver keys on the outermost enclosing
			// declaration: a panic in a closure belongs to the function
			// that defines the closure, and a package-level var has none.
			if fn, ok := decl.(*ast.FuncDecl); ok && panicAllowed(pass.Path, fn.Name.Name) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true // a local function shadowing the builtin
				}
				pass.Reportf(call.Pos(),
					"panic in library package %s; return an error or route through a matrix invariant helper", pass.Path)
				return true
			})
		}
	}
}
