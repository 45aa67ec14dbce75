package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one Loader (and its type-checked stdlib) across
// all tests; the source importer is the expensive part.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, rel string) (*Loader, *Package) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", rel))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", rel, err)
	}
	if pkg == nil {
		t.Fatalf("LoadDir(%s): no Go files", rel)
	}
	return loader, pkg
}

// want is one expected diagnostic parsed from a fixture's
// `// want <analyzer> "substring"` marker.
type want struct {
	line     int
	analyzer string
	substr   string
}

var wantRE = regexp.MustCompile(`// want ([a-z-]+) "([^"]+)"`)

// parseWants extracts the expectation markers from every file of the
// fixture directory.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants = append(wants, want{line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return wants
}

// golden pairs each analyzer with its positive and negative fixture
// packages under testdata/.
var golden = []struct {
	analyzer *Analyzer
	pos, neg string
}{
	{FloatCmp, "floatcmp_pos", "floatcmp_neg"},
	{ErrcheckGob, "errcheckgob_pos", "errcheckgob_neg"},
	{GoroutineGuard, "goroutineguard_pos", "goroutineguard_neg"},
	{GoroutineGuard, "goroutineowner/internal/kernel", "goroutineowner/internal/par"},
	{GoroutineGuard, "goroutineowner/internal/shard", "goroutineowner/internal/par"},
	{PanicFree, "panicfree_pos", "matrixcase/internal/matrix"},
	{MapOrder, "maporder_pos", "maporder_neg"},
	{FloatAccum, "floataccum_pos", "floataccum_neg"},
	{PoolEscape, "poolescape_pos", "poolescape_neg"},
}

func TestAnalyzersGolden(t *testing.T) {
	for _, tc := range golden {
		t.Run(tc.analyzer.Name+"/positive", func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.pos)
			diags := Run(loader.Fset, []*Package{pkg}, []*Analyzer{tc.analyzer})
			wants := parseWants(t, pkg.Dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want markers", tc.pos)
			}
			matched := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if !matched[i] && d.Line == w.line && d.Analyzer == w.analyzer &&
						strings.Contains(d.Message, w.substr) {
						matched[i], found = true, true
						break
					}
				}
				if !found {
					t.Errorf("missing diagnostic: line %d %s %q", w.line, w.analyzer, w.substr)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
		t.Run(tc.analyzer.Name+"/negative", func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.neg)
			diags := Run(loader.Fset, []*Package{pkg}, []*Analyzer{tc.analyzer})
			for _, d := range diags {
				t.Errorf("unexpected diagnostic in negative fixture: %s", d)
			}
		})
	}
}

// TestDriverExactDiagnostics runs the full suite against the fixture
// package and asserts the exact formatted output dasclint would print.
func TestDriverExactDiagnostics(t *testing.T) {
	loader, pkg := loadFixture(t, "fixture")
	diags := Run(loader.Fset, []*Package{pkg}, All)
	var got []string
	for _, d := range diags {
		rel, err := filepath.Rel(pkg.Dir, d.File)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d:%d: %s: %s", rel, d.Line, d.Col, d.Analyzer, d.Message))
	}
	wantLines := []string{
		"fixture.go:7:11: floatcmp: floating-point == comparison; use matrix.ApproxEqual or an explicit tolerance",
		"fixture.go:11:2: panicfree: panic in library package repro/internal/lint/testdata/fixture; return an error or route through a matrix invariant helper",
	}
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("diagnostics mismatch:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
}

// TestSuppression checks that well-formed //lint:ignore comments
// silence findings on their own and the following line, and that a
// malformed directive is itself reported.
func TestSuppression(t *testing.T) {
	loader, pkg := loadFixture(t, "suppressed")
	diags := Run(loader.Fset, []*Package{pkg}, All)
	if len(diags) != 1 {
		t.Fatalf("want exactly the malformed-directive diagnostic, got %d:\n%v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "malformed //lint:ignore") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if d.Line != 17 {
		t.Errorf("malformed directive reported at line %d, want 17", d.Line)
	}
}

// TestLoaderModule sanity-checks module discovery from the package
// directory.
func TestLoaderModule(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module() != "repro" {
		t.Errorf("module = %q, want repro", loader.Module())
	}
	if _, err := os.Stat(filepath.Join(loader.Root(), "go.mod")); err != nil {
		t.Errorf("root %q has no go.mod: %v", loader.Root(), err)
	}
}

// TestLoaderHonoursBuildConstraints: a package split across build tags
// (internal/offheap's mmap file and its heap fallback both declare
// Alloc) type-checks as `go build` compiles it, one side only.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"on.go":      "//go:build !race\n\npackage split\n\nconst Side = 1\n",
		"off.go":     "//go:build race\n\npackage split\n\nconst Side = 2\n",
		"x_plan9.go": "package split\n\nconst Side = 3\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 1 || pkg.Types.Scope().Lookup("Side") == nil {
		t.Fatalf("loaded %d files, want on.go alone", len(pkg.Files))
	}
}
