package lint

import (
	"go/ast"
	"strings"
)

// GoroutineGuard reports two things in internal packages.
//
// Any `go` statement outside the packages that own goroutines: all
// compute fan-out goes through internal/par (one budget, one
// determinism contract), so a hand-rolled worker pool in a compute
// package is a finding, however well it is guarded.
//
// And, in the packages that may start goroutines, a `go func` literal
// whose body neither signals completion (a Done() call, a channel send,
// or a channel close) nor installs a deferred recover. A worker
// goroutine that panics without one of these leaves the job's WaitGroup
// or result channel waiting forever — the MapReduce master deadlocks
// instead of failing the job.
var GoroutineGuard = &Analyzer{
	Name: "goroutine-guard",
	Doc: "go statements in internal/ belong to the packages that own goroutines " +
		"(par, mapreduce, shard, lint), and a goroutine literal there must signal a " +
		"WaitGroup/channel or defer a recover, so a panicking worker cannot deadlock the job",
	Run: runGoroutineGuard,
}

// goroutineOwners are the internal packages (and their sub-packages)
// that may contain a go statement: the fan-out primitive, the MapReduce
// executors and their test harness (sockets, pipelined dispatch), the
// shard read-ahead, and the linter's own parse/analyze pool.
var goroutineOwners = []string{"par", "mapreduce", "shard", "lint"}

// ownsGoroutines reports whether the package at pkgPath is, or is
// beneath, one of goroutineOwners.
func ownsGoroutines(pkgPath string) bool {
	rel := pkgPath[strings.LastIndex(pkgPath, "/internal/")+len("/internal/"):]
	for _, owner := range goroutineOwners {
		if rel == owner || strings.HasPrefix(rel, owner+"/") {
			return true
		}
	}
	return false
}

func runGoroutineGuard(pass *Pass) {
	if !strings.Contains(pass.Path, "/internal/") {
		return
	}
	owner := ownsGoroutines(pass.Path)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gostmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !owner {
				pass.Reportf(gostmt.Pos(),
					"go statement outside the packages that own goroutines (internal/%s); run compute loops through par.Workers or par.Each",
					strings.Join(goroutineOwners, ", internal/"))
				return true
			}
			// A named function's body is checked where it is defined.
			if lit, ok := gostmt.Call.Fun.(*ast.FuncLit); ok && !hasCompletionGuard(lit.Body) {
				pass.Reportf(gostmt.Pos(),
					"goroutine literal has no completion signal (Done/channel send/close) and no deferred recover; a panic here deadlocks the job")
			}
			return true
		})
	}
}

// hasCompletionGuard reports whether body contains any of: a call to a
// method named Done (WaitGroup-style), a channel send, a close() call,
// or a recover() inside a defer.
func hasCompletionGuard(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" {
					found = true
				}
			}
		case *ast.DeferStmt:
			if deferRecovers(x) {
				found = true
			}
		}
		return !found
	})
	return found
}

// deferRecovers reports whether the defer statement calls recover,
// either directly or inside a deferred function literal.
func deferRecovers(d *ast.DeferStmt) bool {
	if id, ok := d.Call.Fun.(*ast.Ident); ok && id.Name == "recover" {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	recovers := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				recovers = true
			}
		}
		return !recovers
	})
	return recovers
}
