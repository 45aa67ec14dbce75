//go:build paper

package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperArtifacts regenerates every artifact at Full scale and diffs
// each against its block of experiments_full.txt, so a change that
// moves the paper's numbers shows as a diff. Figure 6's time columns
// are wall clock; that block is compared field by field with them
// skipped. Build tag `paper` keeps it out of the default suite (the
// full set takes about a minute and a half on two cores). Run it, or
// one artifact, with:
//
//	go test -tags paper -timeout 30m ./internal/experiments/
//	go test -tags paper -run 'TestPaperArtifacts/fig3$' ./internal/experiments/
//
// A change that moves the numbers on purpose regenerates the file:
//
//	go run ./cmd/experiments > experiments_full.txt
func TestPaperArtifacts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "experiments_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := splitBlocks(string(data))
	if len(blocks) != len(Artifacts) {
		t.Fatalf("experiments_full.txt holds %d tables, want one per artifact (%d)", len(blocks), len(Artifacts))
	}
	for i, a := range Artifacts {
		want := blocks[i]
		t.Run(a.ID, func(t *testing.T) {
			tab, err := a.Run(Full)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			if a.ID == "fig6" {
				if diff := diffSkipping(got, want, wallClockColumns(tab)); diff != "" {
					t.Fatalf("%s\n--- got ---\n%s--- want ---\n%s", diff, got, want)
				}
				return
			}
			if got != want {
				t.Fatalf("output diverged from experiments_full.txt\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// splitBlocks cuts the file into the tables it concatenates; each
// starts at a "== " caption line.
func splitBlocks(s string) []string {
	var blocks []string
	for s != "" {
		end := strings.Index(s, "\n\n== ")
		if end < 0 {
			return append(blocks, s)
		}
		blocks = append(blocks, s[:end+2])
		s = s[end+2:]
	}
	return blocks
}

// wallClockColumns is the set of tab's columns that hold measured time.
func wallClockColumns(tab *Table) map[int]bool {
	skip := map[int]bool{}
	for i, h := range tab.Headers {
		if strings.HasSuffix(h, " time") {
			skip[i] = true
		}
	}
	return skip
}

// diffSkipping compares two renderings of one table line by line, on
// whitespace-separated fields. On the separator and data rows, fields
// at the skipped column indices are not compared; no cell there holds a
// space. It returns "" when they agree.
func diffSkipping(got, want string, skip map[int]bool) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		return "line counts differ"
	}
	for i := range g {
		gf, wf := strings.Fields(g[i]), strings.Fields(w[i])
		if len(gf) != len(wf) {
			return "line " + w[i] + " differs"
		}
		cells := i >= 2 && !strings.HasPrefix(w[i], "note: ")
		for j := range gf {
			if gf[j] != wf[j] && !(cells && skip[j]) {
				return "line " + w[i] + " differs"
			}
		}
	}
	return ""
}
