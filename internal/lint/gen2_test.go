package lint

// Tests for the second-generation analysis layer: the fact store, the
// stale-suppression check, parallel-run determinism, and exact
// diagnostic positions for the determinism and concurrency analyzers.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestFactStore checks the per-function facts on the floataccum
// fixture, whose helper is the canonical shared-float accumulator.
func TestFactStore(t *testing.T) {
	_, pkg := loadFixture(t, "floataccum_pos")
	facts := computeFacts(pkg.Files, pkg.Info)

	byName := map[string]*FuncFacts{}
	for fn, ff := range facts.funcs {
		byName[fn.Name()] = ff
	}
	if ff := byName["accumulateInto"]; ff == nil || !ff.AccumulatesSharedFloat {
		t.Errorf("accumulateInto: want AccumulatesSharedFloat, got %+v", ff)
	}
	if ff := byName["intoGlobal"]; ff == nil || ff.TouchesPool {
		t.Errorf("intoGlobal: want !TouchesPool, got %+v", ff)
	}
}

// TestFactStorePool checks pool-touch facts on the poolescape fixture.
func TestFactStorePool(t *testing.T) {
	_, pkg := loadFixture(t, "poolescape_neg")
	facts := computeFacts(pkg.Files, pkg.Info)
	byName := map[string]*FuncFacts{}
	for fn, ff := range facts.funcs {
		byName[fn.Name()] = ff
	}
	if ff := byName["borrowAndReturn"]; ff == nil || !ff.TouchesPool {
		t.Errorf("borrowAndReturn: want TouchesPool, got %+v", ff)
	}
	if ff := byName["returnsFresh"]; ff == nil || ff.TouchesPool {
		t.Errorf("returnsFresh: want !TouchesPool, got %+v", ff)
	}
}

// TestStaleSuppression: a dead //lint:ignore is reported, a live one
// is not, and neither is one whose analyzer did not run.
func TestStaleSuppression(t *testing.T) {
	loader, pkg := loadFixture(t, "staleignore")

	diags := Run(loader.Fset, []*Package{pkg}, All)
	if len(diags) != 1 {
		t.Fatalf("want exactly the stale directive, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "suppresses no diagnostic") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if d.Line != 7 {
		t.Errorf("stale directive reported at line %d, want 7", d.Line)
	}

	// A directive whose analyzer is not in the run set cannot be proven
	// stale and must not be reported.
	diags = Run(loader.Fset, []*Package{pkg}, []*Analyzer{MapOrder})
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses no diagnostic") && strings.Contains(d.Message, "floatcmp") {
			t.Errorf("directive for analyzer outside the run set reported stale: %s", d)
		}
	}
}

// TestParallelRunDeterministic requires byte-identical diagnostics from
// sequential (GOMAXPROCS 1) and parallel runs over the same fixture set.
func TestParallelRunDeterministic(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []string{
		"maporder_pos", "floataccum_pos", "poolescape_pos", "panicfree_pos",
		"fixture", "errcheckgob_pos",
	}
	var pkgs []*Package
	for _, rel := range fixtures {
		pkg, err := loader.LoadDir(filepath.Join("testdata", rel))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var sb strings.Builder
		for _, d := range Run(loader.Fset, pkgs, All) {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	seq := render(1)
	for _, procs := range []int{2, 4, 8} {
		if par := render(procs); par != seq {
			t.Errorf("GOMAXPROCS=%d: diagnostics differ from sequential run:\n%s\nvs\n%s", procs, par, seq)
		}
	}
}

// TestNewAnalyzersExactPositions mirrors TestDriverExactDiagnostics for
// the gen-2 analyzers: the full suite over each positive fixture must
// produce exactly the expected file:line:col positions.
func TestNewAnalyzersExactPositions(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
		want     []string
	}{
		{"maporder_pos", MapOrder, []string{
			"closure.go:12:4",
			"maporder_pos.go:8:3",
			"maporder_pos.go:17:3",
			"maporder_pos.go:26:3",
			"maporder_pos.go:35:3",
			"maporder_pos.go:43:3",
		}},
		{"floataccum_pos", FloatAccum, []string{
			"floataccum_pos.go:17:4",
			"floataccum_pos.go:30:4",
			"floataccum_pos.go:43:5",
			"floataccum_pos.go:62:4",
		}},
		{"poolescape_pos", PoolEscape, []string{
			"poolescape_pos.go:18:9",
			"poolescape_pos.go:23:14",
			"poolescape_pos.go:28:9",
			"poolescape_pos.go:33:8",
			"poolescape_pos.go:41:16",
			"poolescape_pos.go:46:16",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.fixture)
			diags := Run(loader.Fset, []*Package{pkg}, []*Analyzer{tc.analyzer})
			var got []string
			for _, d := range diags {
				rel, err := filepath.Rel(pkg.Dir, d.File)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s:%d:%d", rel, d.Line, d.Col))
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("positions mismatch:\ngot:\n%s\nwant:\n%s",
					strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
