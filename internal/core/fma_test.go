package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// fmaOff is the GODEBUG setting that turns off math.Exp's FMA path on
// amd64, the one step of the Gaussian fills that depends on the CPU.
const fmaOff = "cpu.fma=off"

// fmaDigests runs every route of the driver grid on the dense, ε-sparse,
// landmark and RFF solves and returns, per route, an FNV-64a digest of
// the labels and of the stage-1 bucket signatures.
func fmaDigests(t *testing.T) map[string]string {
	a := mixture(t, 240, 12, 4, 0.03, 40)
	b := mixture(t, 240, 12, 4, 0.04, 11)
	e := mixture(t, 600, 8, 4, 0.08, 19)
	aDir, bDir, eDir := writeShardDir(t, a.Points, 64), writeShardDir(t, b.Points, 64), writeShardDir(t, e.Points, 128)
	cases := []struct {
		name  string
		cells []gridCell
		cfg   Config
	}{
		{"dense", driverGrid(a.Points, aDir, 1<<16), Config{K: 4, Seed: 41}},
		{"sparse", driverGrid(b.Points, bDir, 1<<16), Config{K: 4, Seed: 7, SparseCutoff: 24, Epsilon: 1e-4}},
		{"landmark", driverGrid(e.Points, eDir, 1<<20), Config{K: 4, M: 1, Seed: 3, EmbedDim: 16, EmbedCutoff: 64}},
		{"rff", driverGrid(e.Points, eDir, 1<<20), Config{K: 4, M: 1, Seed: 3, EmbedDim: 14, EmbedCutoff: 64}},
	}
	out := make(map[string]string)
	var w [8]byte
	for _, c := range cases {
		for _, cell := range c.cells {
			res, err := cell.run(bg, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, cell.name, err)
			}
			h := fnv.New64a()
			for _, l := range res.Labels {
				binary.LittleEndian.PutUint64(w[:], uint64(l))
				h.Write(w[:])
			}
			for _, bk := range res.Buckets {
				binary.LittleEndian.PutUint64(w[:], bk.Signature)
				h.Write(w[:])
			}
			out[c.name+"/"+cell.name] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return out
}

// TestLabelsIndependentOfFMA re-runs the driver grid in a child process
// of this test binary with GODEBUG=cpu.fma=off, and requires the same
// labels and bucket signatures on every route as with the FMA path that
// math.Exp takes where the CPU has one. Run under that setting itself,
// the test is the child: it prints its digests and returns.
func TestLabelsIndependentOfFMA(t *testing.T) {
	want := fmaDigests(t)
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, fmaOff) {
		for route, d := range want {
			fmt.Printf("fma-digest %s %s\n", route, d)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("%s selects an amd64 code path; GOARCH is %s", fmaOff, runtime.GOARCH)
	}
	if godebug != "" {
		godebug += ","
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLabelsIndependentOfFMA$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug+fmaOff)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under GODEBUG=%s: %v\n%s", fmaOff, err, raw)
	}
	got := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "fma-digest" {
			got[f[1]] = f[2]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("child reported %d routes, want %d:\n%s", len(got), len(want), raw)
	}
	for route, d := range want {
		if got[route] != d {
			t.Errorf("%s: labels and signatures digest %s under %s, %s with FMA", route, got[route], fmaOff, d)
		}
	}
}
