package lint

import (
	"go/ast"
	"go/types"
)

// ErrcheckGob reports statements that silently discard the error result
// of Encode, Decode, Close, or Write calls. The TCP executor ships the
// shuffle over stateful gob streams and the DFS layer persists blobs; a
// dropped encode/decode/close/write error corrupts the stream without a
// crash. The error must be checked, propagated, or — where discarding
// is genuinely intended — assigned to the blank identifier so the
// decision is visible at the call site.
var ErrcheckGob = &Analyzer{
	Name: "errcheck-gob",
	Doc: "reject discarded error results from Encode/Decode/Close/Write; " +
		"a dropped stream error corrupts the shuffle silently",
	Run: runErrcheckGob,
}

// errcheckMethods are the stream-integrity methods whose error result
// must never be dropped on the floor.
var errcheckMethods = map[string]bool{
	"Encode": true,
	"Decode": true,
	"Close":  true,
	"Write":  true,
}

func runErrcheckGob(pass *Pass) {
	check := func(call *ast.CallExpr, how string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !errcheckMethods[sel.Sel.Name] {
			return
		}
		sig, ok := pass.Info.Types[call.Fun].Type.(*types.Signature)
		if !ok || !returnsError(sig) {
			return
		}
		pass.Reportf(call.Pos(),
			"%serror result of %s is discarded; check it or assign it to _ explicitly",
			how, sel.Sel.Name)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					check(call, "")
				}
			case *ast.DeferStmt:
				check(stmt.Call, "deferred ")
			case *ast.GoStmt:
				check(stmt.Call, "spawned ")
			}
			return true
		})
	}
}

// returnsError reports whether any result of sig is the built-in error
// type.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "error" && obj.Pkg() == nil {
				return true
			}
		}
	}
	return false
}
