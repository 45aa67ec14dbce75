package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/spectral"
)

// TestCompressionLabelIdentityAcrossDrivers is Config.Compression's
// contract: it changes bytes moved and CPU spent in the codec, never
// labels. Every driver, at every spill budget, must
// reproduce the uncompressed in-memory labels bit for bit.
func TestCompressionLabelIdentityAcrossDrivers(t *testing.T) {
	l := mixture(t, 240, 10, 3, 0.03, 51)
	base, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeShardDir(t, l.Points, 64)

	check := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, uncompressed %d", name, i, res.Labels[i], base.Labels[i])
			}
		}
	}

	for _, spill := range []int64{1, 64, 1 << 20} {
		cfg := Config{K: 3, Seed: 52, Compression: true, SpillBytes: spill}

		sh, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg))
		check(fmt.Sprintf("shipped/local spill=%d", spill), sh, err)

		scfg := cfg
		scfg.FitSample = 240
		shd, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, scfg))
		check(fmt.Sprintf("sharded/local spill=%d", spill), shd, err)
		if shd.MapReduce == nil || shd.MapReduce.ShardReadBytes == 0 {
			t.Fatalf("sharded spill=%d: shard read accounting missing", spill)
		}
		if shd.MapReduce.ShardReadOps == 0 {
			t.Fatalf("sharded spill=%d: no shard read ops recorded", spill)
		}
	}

	// And with compression off everything must still match.
	off, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, Config{K: 3, Seed: 52}))
	check("shipped/local compression=off", off, err)
}

// TestCompressionLabelIdentityOverTCP repeats the identity over real
// sockets, where Compression additionally deflates wire frames in both
// directions.
func TestCompressionLabelIdentityOverTCP(t *testing.T) {
	l := mixture(t, 200, 10, 3, 0.03, 61)
	base, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}

	m := loopbackCluster(t, 2)

	cfg := Config{K: 3, Seed: 62, Compression: true, SpillBytes: 64}
	res, err := Run(bg, Source{Points: l.Points}, onExec(m, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Labels {
		if res.Labels[i] != base.Labels[i] {
			t.Fatalf("label[%d] = %d, uncompressed %d", i, res.Labels[i], base.Labels[i])
		}
	}
	if res.MapReduce == nil || res.MapReduce.SpillBytes == 0 {
		t.Fatal("expected spill counters over TCP")
	}
}

// TestCompressionEmbedShippedIdentity runs the shipped driver with
// embedded buckets — on the RFF route at EmbedDim 6, on the landmark
// route at 16 — Compression on and off: same labels and the same
// solvers — the flag compresses frames and spill runs, it does not
// choose how a bucket is solved.
func TestCompressionEmbedShippedIdentity(t *testing.T) {
	l := mixture(t, 300, 10, 3, 0.03, 17)
	for _, route := range []struct {
		dim    int
		solver string
	}{{6, spectral.SolverEmbedded}, {16, spectral.SolverLandmark}} {
		cfg := Config{K: 3, Seed: 5, EmbedDim: route.dim, EmbedCutoff: 40}

		off, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg))
		if err != nil {
			t.Fatal(err)
		}
		on := cfg
		on.Compression = true
		res, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, on))
		if err != nil {
			t.Fatal(err)
		}
		for i := range off.Labels {
			if res.Labels[i] != off.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, uncompressed %d", route.solver, i, res.Labels[i], off.Labels[i])
			}
		}
		if off.Solvers[route.solver] == 0 {
			t.Fatalf("no buckets took the %s solver at this size; nothing was compared: %v", route.solver, off.Solvers)
		}
		if !reflect.DeepEqual(res.Solvers, off.Solvers) {
			t.Fatalf("solvers %v with Compression, %v without", res.Solvers, off.Solvers)
		}
	}
}

// TestPackedIndicesCodec pins the stage-2 index record: exact round
// trip (sorted and unsorted), about a byte per index for the sorted runs
// buckets are, and malformed inputs rejected.
func TestPackedIndicesCodec(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{5, 6, 7, 8},
		{100000, 3, 99, 2_000_000_000},
		{7, 7, 7},
	}
	for ci, idx := range cases {
		got, err := decodeIndices(encodeIndices(idx))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if len(got) != len(idx) {
			t.Fatalf("case %d: %d indices back, want %d", ci, len(got), len(idx))
		}
		for i := range idx {
			if got[i] != idx[i] {
				t.Fatalf("case %d: index %d = %d, want %d", ci, i, got[i], idx[i])
			}
		}
	}

	sorted := make([]int, 500)
	for i := range sorted {
		sorted[i] = 1000 + i
	}
	if p := encodeIndices(sorted); len(p) >= 2*len(sorted) {
		t.Fatalf("500 consecutive indices took %d bytes", len(p))
	}

	for name, buf := range map[string][]byte{
		"trailing garbage": append(encodeIndices([]int{1, 2}), 0),
		"count lies":       {200},
		"empty varint":     {0x80},
		"empty":            {},
		"negative index":   {1, 1},
		"index > int32":    append([]byte{1}, binary.AppendVarint(nil, 1<<31)...),
	} {
		if _, err := decodeIndices(buf); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestPackedStatsCodec pins the stats that open the stage-2 result
// record: they round-trip, the smallest record (zero stats, empty
// solver, no labels) stays longer than a 12-byte label record of the
// earlier layout, and an empty buffer, a wrong kind or version, a
// record cut inside its stats, and trailing bytes are refused.
func TestPackedStatsCodec(t *testing.T) {
	s := bucketSolution{NNZ: 12345, Fill: 0.625, SolveNanos: 1 << 40, GramBytes: 9999, Solver: "dense"}
	rec := encodeBucketResult(s)
	var got bucketSolution
	if err := decodeBucketResult(rec, &got); err != nil {
		t.Fatal(err)
	}
	if got.NNZ != s.NNZ || got.Fill != s.Fill || got.SolveNanos != s.SolveNanos ||
		got.GramBytes != s.GramBytes || got.Solver != s.Solver {
		t.Fatalf("round trip %+v != %+v", got, s)
	}

	if min := encodeBucketResult(bucketSolution{}); len(min) <= 12 {
		t.Fatalf("minimal result record is %d bytes", len(min))
	}

	good := encodeBucketResult(bucketSolution{Labels: []int{1, 0}, K: 2, Solver: "dense"})
	for name, buf := range map[string][]byte{
		"empty":      {},
		"wrong kind": append([]byte{'S'}, good[1:]...),
		"bad ver":    append([]byte{resultKind, 1}, good[2:]...),
		"truncated":  rec[:6],
		"trailing":   append(append([]byte(nil), good...), 0),
	} {
		var tmp bucketSolution
		if err := decodeBucketResult(buf, &tmp); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
