package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// WgMisuse reports the two WaitGroup shapes that turn a worker pool
// into a race or a deadlock:
//
//  1. wg.Add called inside the spawned goroutine itself. The spawner
//     can reach Wait before the goroutine is scheduled, so Wait
//     observes a zero counter and returns while work is still running
//     — the textbook Add-after-Wait race. Add belongs in the spawner,
//     before the go statement.
//  2. wg.Wait called while a mutex is held (Lock with no intervening
//     Unlock, or an Unlock deferred to function exit) when a goroutine
//     spawned in the same function locks that same mutex. The workers
//     block on the mutex, Wait blocks on the workers, and the job
//     deadlocks.
var WgMisuse = &Analyzer{
	Name: "wgmisuse",
	Doc: "reject WaitGroup.Add inside the spawned goroutine and Wait " +
		"while holding a mutex the goroutines lock",
	Run: runWgMisuse,
}

func runWgMisuse(pass *Pass) {
	// Rule 1: Add inside a goroutine literal, on a WaitGroup the
	// goroutine did not create itself.
	pass.Inspect.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gostmt := n.(*ast.GoStmt)
		lit, ok := gostmt.Call.Fun.(*ast.FuncLit)
		if !ok {
			return
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" || !isWaitGroupExpr(pass, sel.X) {
				return true
			}
			if v, ok := rootObject(pass, sel.X).(*types.Var); ok && definedWithinNode(v, lit) {
				return true // the goroutine's own WaitGroup is its business
			}
			pass.Reportf(call.Pos(),
				"WaitGroup.Add inside the spawned goroutine races with Wait; call Add in the spawner before the go statement")
			return true
		})
	})

	// Rule 2: Wait while holding a mutex the spawned goroutines lock.
	pass.Inspect.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		checkWaitUnderLock(pass, decl.Body)
	})
}

// checkWaitUnderLock does a lexical scan of one function body: it
// tracks which mutexes are held at each point (keyed by their selector
// chain) and, at every WaitGroup.Wait, reports held mutexes that some
// goroutine spawned in this function also locks.
func checkWaitUnderLock(pass *Pass, body *ast.BlockStmt) {
	// Mutexes the function's goroutine literals lock, by chain key.
	goroutineLocks := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		gostmt, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gostmt.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
						goroutineLocks[chainKey(pass, sel.X)] = true
					}
				}
			}
			return true
		})
		return true
	})
	if len(goroutineLocks) == 0 {
		return
	}

	held := map[string]bool{}
	// walk skips goroutine literal bodies: their statements execute on
	// another goroutine, not at this lexical point.
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				// A deferred Unlock releases at return, after any Wait
				// in the body — so it does not clear held here.
				walk(x.Call, true)
				return false
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key := chainKey(pass, sel.X)
				switch sel.Sel.Name {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					if !inDefer {
						delete(held, key)
					}
				case "Wait":
					if !isWaitGroupExpr(pass, sel.X) {
						return true
					}
					// Sorted so multiple held mutexes report in a
					// stable order.
					var hot []string
					for k := range held {
						if goroutineLocks[k] {
							hot = append(hot, k)
						}
					}
					sort.Strings(hot)
					for _, k := range hot {
						pass.Reportf(x.Pos(),
							"WaitGroup.Wait while holding %s, which a goroutine spawned here locks; the workers block on the mutex and Wait blocks on the workers", strings.SplitN(k, "@", 2)[0])
					}
				}
			}
			return true
		})
	}
	walk(body, false)
}

// isWaitGroupExpr reports whether e's type is sync.WaitGroup or
// *sync.WaitGroup.
func isWaitGroupExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// chainKey renders a selector chain as a stable key anchored at the
// root object's identity, so `s.mu` in two scopes keys differently but
// the same mutex reached the same way keys identically.
func chainKey(pass *Pass, e ast.Expr) string {
	obj := rootObject(pass, e)
	key := exprString(ast.Unparen(e))
	if obj != nil {
		return key + "@" + strconv.Itoa(int(obj.Pos()))
	}
	return key
}

// definedWithinNode reports whether v is declared inside n's source
// range.
func definedWithinNode(v *types.Var, n ast.Node) bool {
	return v.Pos() >= n.Pos() && v.Pos() <= n.End()
}
