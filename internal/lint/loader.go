package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/matrix").
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds type facts for the package's expressions.
	Info *types.Info
}

// Loader parses and type-checks packages of a single Go module using
// only the standard library: module-internal imports are resolved from
// the module tree, everything else through go/importer's source
// importer (which type-checks GOROOT packages on demand).
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet

	root   string // module root (directory containing go.mod)
	module string // module path from the go.mod "module" directive
	std    types.Importer
	pkgs   map[string]*Package    // by import path
	active map[string]bool        // import-cycle guard
	parsed map[string][]*ast.File // pre-parsed sources by directory
}

// NewLoader creates a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		active: map[string]bool{},
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// Module returns the module path.
func (l *Loader) Module() string { return l.module }

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadAll loads every package in the module (excluding testdata,
// vendor, and hidden directories), returning them sorted by import
// path. The parse phase fans out over GOMAXPROCS goroutines — parsing
// is embarrassingly parallel and token.FileSet is concurrency-safe —
// while type-checking stays sequential because the module importer
// recurses through shared memo tables; in practice parsing is the
// file-I/O-bound half of loading, so this is where the wall-clock
// lives. Packages are type-checked in sorted-directory order, so the
// result does not depend on the parallelism.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	if workers := min(runtime.GOMAXPROCS(0), len(dirs)); workers > 1 {
		if err := l.parseAll(dirs, workers); err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// parseAll pre-parses every directory's sources concurrently into the
// loader's parse cache, which load consults before re-parsing.
func (l *Loader) parseAll(dirs []string, workers int) error {
	l.parsed = map[string][]*ast.File{}
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dir := range next {
				files, err := l.parseDir(dir)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					l.parsed[dir] = files
				}
				mu.Unlock()
			}
		}()
	}
	for _, dir := range dirs {
		next <- dir
	}
	close(next)
	wg.Wait()
	return firstErr
}

// parseDir parses the non-test sources of one directory.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", dir, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// packageDirs lists every directory under the module root that holds at
// least one non-test Go file.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goSources returns the sorted non-test .go file names in dir that
// `go build` would compile on this platform: a file whose name or
// //go:build line excludes it (a heap fallback beside an mmap file,
// say) would otherwise redeclare its sibling's names.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir parses and type-checks the package in dir. Directories inside
// the module tree get their real import path; directories outside (or
// under testdata) get a synthetic one derived from the directory name.
// It returns (nil, nil) when dir holds no non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.importPathFor(dir), dir)
}

// importPathFor maps a directory to the import path used as the
// package key in diagnostics and analyzer scoping rules.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "lint.test/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		pkg, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one package, memoized by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	files, preParsed := l.parsed[dir]
	if !preParsed {
		names, err := goSources(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		}
		if len(names) == 0 {
			l.pkgs[path] = nil
			return nil, nil
		}
		for _, name := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", path, err)
			}
			files = append(files, f)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
