package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp reports == and != between floating-point operands. DASC's
// per-bucket Gram/spectral pipeline produces wrong clusters, not
// crashes, when numeric code compares floats exactly; comparisons must
// go through matrix.ApproxEqual (tol=0 spells out an intentional exact
// comparison) or an explicit tolerance. Comparisons where both sides
// are compile-time constants are allowed. Test files are never loaded,
// so assertions in _test.go files are unaffected.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "reject ==/!= on floating-point operands; numeric code must use " +
		"matrix.ApproxEqual or an explicit tolerance",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			x, xok := pass.Info.Types[bin.X]
			y, yok := pass.Info.Types[bin.Y]
			if !xok || !yok {
				return true
			}
			if x.Value != nil && y.Value != nil {
				return true // constant-folded at compile time
			}
			if isFloat(x.Type) || isFloat(y.Type) {
				pass.Reportf(bin.OpPos,
					"floating-point %s comparison; use matrix.ApproxEqual or an explicit tolerance",
					bin.Op)
			}
			return true
		})
	}
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
