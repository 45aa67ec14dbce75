// Package lint is a pure-stdlib static-analysis framework for the DASC
// codebase. It loads every package in the module with go/parser and
// go/types, runs a suite of project-specific analyzers over the typed
// ASTs, and reports diagnostics in a stable "file:line:col: analyzer:
// message" format.
//
// DASC re-implements its MapReduce runtime and numerics from scratch
// instead of inheriting Hadoop's battle-tested ones, so the invariants
// those layers rely on (checked gob errors, guarded goroutines,
// tolerance-based float comparisons) are enforced here rather than by
// the upstream framework. Lock copies are left to go vet's copylocks
// check. See cmd/dasclint for the command-line driver and DESIGN.md for
// the analyzer catalogue.
//
// Findings can be suppressed at a specific site with a comment on the
// flagged line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `dasclint -list`.
	Doc string
	// Run inspects pass.Files and calls pass.Reportf for findings.
	Run func(pass *Pass)
}

// All is the analyzer suite run by default, in reporting order.
var All = []*Analyzer{
	FloatCmp,
	ErrcheckGob,
	GoroutineGuard,
	PanicFree,
	MapOrder,
	FloatAccum,
	PoolEscape,
}

// Pass carries one package's parsed and type-checked state to an
// analyzer invocation. The Facts store is built once per package and
// shared by every analyzer in the suite.
type Pass struct {
	// Analyzer is the check currently running.
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions; shared by all packages.
	Fset *token.FileSet
	// Path is the package import path (e.g. "repro/internal/matrix").
	Path string
	// Files are the package's parsed sources (test files excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression and object facts.
	Info *types.Info
	// Facts answers one-call-deep questions about functions declared in
	// this package (does the callee touch a pool / accumulate shared
	// floats).
	Facts *FactStore

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the diagnostic as "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}
