package lint

import (
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// IgnorePrefix starts a suppression comment: //lint:ignore <analyzer>
// <reason>. The comment silences that analyzer on its own line and on
// the line directly below it (so it can trail the flagged expression or
// sit on its own line above).
const IgnorePrefix = "//lint:ignore"

// Run executes the analyzers over every package, filters findings
// through //lint:ignore comments, and returns the remaining diagnostics
// sorted by file, line, column, and analyzer. Packages are analyzed
// concurrently across GOMAXPROCS goroutines (each package on one: the
// fact store is built once and shared by every analyzer), and the
// global sort makes the output order
// independent of scheduling. Malformed ignore comments (missing analyzer
// or reason) and directives that suppressed nothing are reported under
// the pseudo-analyzer "lint".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	workers := min(runtime.GOMAXPROCS(0), len(pkgs))
	perPkg := make([][]Diagnostic, len(pkgs))
	if workers <= 1 {
		for i, pkg := range pkgs {
			perPkg[i] = runPackage(fset, pkg, analyzers)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					perPkg[i] = runPackage(fset, pkgs[i], analyzers)
				}
			}()
		}
		for i := range pkgs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// runPackage analyzes one package: facts first, then every analyzer,
// then suppression filtering and stale-directive reporting.
func runPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	dirs, diags := suppressions(fset, pkg.Files)
	facts := computeFacts(pkg.Files, pkg.Info)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
		}
		pass.report = func(d Diagnostic) {
			d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
			for _, dir := range dirs {
				if dir.analyzer == d.Analyzer && dir.file == d.File &&
					(dir.line == d.Line || dir.line+1 == d.Line) {
					dir.used = true
					return
				}
			}
			diags = append(diags, d)
		}
		a.Run(pass)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, dir := range dirs {
		// A directive for an analyzer outside the run set may still be
		// live; only directives whose analyzer actually ran can be proven
		// stale.
		if dir.used || !ran[dir.analyzer] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      dir.pos,
			File:     dir.file,
			Line:     dir.line,
			Col:      dir.pos.Column,
			Analyzer: "lint",
			Message:  "//lint:ignore " + dir.analyzer + " suppresses no diagnostic; remove it",
		})
	}
	return diags
}

// directive is one well-formed //lint:ignore comment. It suppresses its
// analyzer on the comment's line and the next line; used records
// whether it ever did.
type directive struct {
	file     string
	line     int
	analyzer string
	pos      token.Position
	used     bool
}

// suppressions scans the files' comments for //lint:ignore directives.
// Malformed directives (missing analyzer or reason) are returned as
// diagnostics.
func suppressions(fset *token.FileSet, files []*ast.File) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				dirs = append(dirs, &directive{
					file: pos.Filename, line: pos.Line, analyzer: fields[0], pos: pos,
				})
			}
		}
	}
	return dirs, bad
}
