package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// referenceLloyd is the unaccelerated algorithm, kept as the oracle:
// the pre-tile single-pair seeding, a full assignment scan every
// iteration (strict `<`, ascending index), a separate final inertia
// sweep, the pre-tile farthest-point repair, and no early stop other
// than Lloyd's own movement test. It sums as Run does — the centroid
// sums and the inertia per fixed 256-row block in row order, the block
// partials in block order — but re-sums every block every iteration,
// where Run re-sums only the blocks whose labels changed. The bounded
// production path must reproduce its labels, centroids, iteration count
// and inertia bit for bit. It also returns how many empty clusters it
// repaired.
func referenceLloyd(points *matrix.Dense, cfg Config) (*Result, int) {
	n := points.Rows()
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := points.Cols()
	centroids := referenceSeedPlusPlus(points, cfg.K, rng)
	labels := make([]int, n)
	counts := make([]int, cfg.K)
	sums := matrix.NewDense(cfg.K, d)
	blockCounts, blockSums := make([]int, cfg.K), matrix.NewDense(cfg.K, d)
	update := func() {
		clear(counts)
		clear(sums.Data())
		for lo := 0; lo < n; lo += updateBlockRows {
			clear(blockCounts)
			clear(blockSums.Data())
			for i := lo; i < min(lo+updateBlockRows, n); i++ {
				blockCounts[labels[i]]++
				row := blockSums.Row(labels[i])
				for j, v := range points.Row(i) {
					row[j] += v
				}
			}
			for c := range counts {
				counts[c] += blockCounts[c]
				row := sums.Row(c)
				for j, v := range blockSums.Row(c) {
					row[j] += v
				}
			}
		}
	}
	assign := func() {
		k := centroids.Rows()
		for i := 0; i < n; i++ {
			p := points.Row(i)
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if dd := matrix.SqDist(p, centroids.Row(c)); dd < bestD {
					best, bestD = c, dd
				}
			}
			labels[i] = best
		}
	}
	repairs := 0
	var iter int
	for iter = 0; iter < cfg.MaxIter; iter++ {
		assign()
		update()
		var moved float64
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				far := referenceFarthestPoint(points, centroids, labels)
				copy(sums.Row(c), points.Row(far))
				counts[c] = 1
				labels[far] = c
				repairs++
			}
			inv := 1 / float64(counts[c])
			newRow := sums.Row(c)
			oldRow := centroids.Row(c)
			var delta float64
			for j := range newRow {
				v := newRow[j] * inv
				dv := v - oldRow[j]
				delta += dv * dv
				oldRow[j] = v
			}
			moved += math.Sqrt(delta)
		}
		if moved < cfg.Tol {
			iter++
			break
		}
	}
	assign()
	var inertia float64
	for lo := 0; lo < n; lo += assignBlockRows {
		var block float64
		for i := lo; i < min(lo+assignBlockRows, n); i++ {
			block += matrix.SqDist(points.Row(i), centroids.Row(labels[i]))
		}
		inertia += block
	}
	return &Result{Labels: labels, Centroids: centroids, Inertia: inertia, Iterations: iter}, repairs
}

// referenceSeedPlusPlus is k-means++ one pair at a time.
func referenceSeedPlusPlus(points *matrix.Dense, k int, rng *rand.Rand) *matrix.Dense {
	n, d := points.Rows(), points.Cols()
	centroids := matrix.NewDense(k, d)
	first := rng.Intn(n)
	copy(centroids.Row(0), points.Row(first))

	dist2 := make([]float64, n)
	for i := 0; i < n; i++ {
		dist2[i] = matrix.SqDist(points.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist2 {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			var acc float64
			pick = n - 1
			for i, v := range dist2 {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(centroids.Row(c), points.Row(pick))
		for i := 0; i < n; i++ {
			if d2 := matrix.SqDist(points.Row(i), centroids.Row(c)); d2 < dist2[i] {
				dist2[i] = d2
			}
		}
	}
	return centroids
}

// referenceFarthestPoint is the repair's sweep one pair at a time.
func referenceFarthestPoint(points, centroids *matrix.Dense, labels []int) int {
	worst, worstD := 0, -1.0
	for i := 0; i < points.Rows(); i++ {
		if d := matrix.SqDist(points.Row(i), centroids.Row(labels[i])); d > worstD {
			worst, worstD = i, d
		}
	}
	return worst
}

// setProcs sets GOMAXPROCS — the only parallelism dial since
// internal/par — for the rest of the test, restored on cleanup.
func setProcs(t testing.TB, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// lloydEvals is the number of point-to-centroid distances Lloyd's
// algorithm evaluates for a run of the given shape: seeding, one full
// scan per iteration, the final scan — n·k each.
func lloydEvals(n, k, iterations int) int64 {
	return int64(n) * int64(k) * int64(iterations+2)
}

// requireMatchesLloyd runs cfg through Run and the oracle and fails
// unless labels, centroid bits, iteration count and inertia bits are
// equal and Run evaluated no more distances than Lloyd. It returns both
// results and the oracle's repair count.
func requireMatchesLloyd(t testing.TB, pts *matrix.Dense, cfg Config) (got, want *Result, repairs int) {
	t.Helper()
	got, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, repairs = referenceLloyd(pts, cfg)
	n, d := pts.Rows(), pts.Cols()
	if got.Iterations != want.Iterations {
		t.Fatalf("n=%d d=%d %+v: iterations %d, oracle %d", n, d, cfg, got.Iterations, want.Iterations)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("n=%d d=%d %+v: label[%d] = %d, oracle %d", n, d, cfg, i, got.Labels[i], want.Labels[i])
		}
	}
	gd, wd := got.Centroids.Data(), want.Centroids.Data()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("n=%d d=%d %+v: centroid bit drift at %d: %v vs %v", n, d, cfg, i, gd[i], wd[i])
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("n=%d d=%d %+v: inertia %v, oracle %v (must be bitwise equal)", n, d, cfg, got.Inertia, want.Inertia)
	}
	if lloyd := lloydEvals(n, cfg.K, got.Iterations); got.DistanceEvals <= 0 || got.DistanceEvals > lloyd {
		t.Fatalf("n=%d d=%d %+v: %d distance evaluations, Lloyd makes %d", n, d, cfg, got.DistanceEvals, lloyd)
	}
	return got, want, repairs
}

// TestBoundedMatchesReferenceLloyd: across a spread of small shapes and
// seeds, Run must produce the exact labels, centroid bits, iteration
// count and inertia of the unaccelerated oracle.
func TestBoundedMatchesReferenceLloyd(t *testing.T) {
	cases := []struct {
		n, d, k int
		sep     float64
	}{
		{60, 4, 3, 10},   // well-separated: skips dominate
		{90, 3, 5, 1.0},  // heavy overlap: ties in space, scans dominate
		{200, 8, 7, 2.5}, // mid-size, moderate separation
		{64, 2, 8, 0.5},  // many clusters, crowded plane
		{50, 5, 50, 3},   // k == n degenerate
		{700, 3, 17, 1},  // k > d: 3 groups of 5–6 centroids share a bound
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed * 131))
			pts := matrix.NewDense(tc.n, tc.d)
			for i := 0; i < tc.n; i++ {
				row := pts.Row(i)
				c := i % tc.k
				for j := range row {
					row[j] = float64(c)*tc.sep + rng.NormFloat64()
				}
			}
			for _, procs := range []int{1, 4} {
				setProcs(t, procs)
				requireMatchesLloyd(t, pts, Config{K: tc.k, Seed: seed})
			}
		}
	}
}

// unitRows generates n unit-norm d-dimensional rows around `centers`
// random directions — the shape of an RFF-embedded bucket, whose rows
// have norm ≈ 1. spread is the noise relative to the centre's unit
// length: below ≈ 1 the clusters are separated, at 4 they overlap.
func unitRows(seed int64, n, d, centers int, spread float64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	dirs := matrix.NewDense(centers, d)
	for i := range dirs.Data() {
		dirs.Data()[i] = rng.NormFloat64()
	}
	matrix.NormalizeRows(dirs)
	pts := matrix.NewDense(n, d)
	noise := spread / math.Sqrt(float64(d))
	for i := 0; i < n; i++ {
		row := pts.Row(i)
		for j, v := range dirs.Row(rng.Intn(centers)) {
			row[j] = v + noise*rng.NormFloat64()
		}
	}
	matrix.NormalizeRows(pts)
	return pts
}

// TestBoundedMatchesLloydAtRunSizes: the oracle at the sizes the
// pipeline runs — unit-norm 64-dimensional rows, above
// 2·assignBlockRows (block-parallel assignment and update), at
// GOMAXPROCS 1 and 4.
func TestBoundedMatchesLloydAtRunSizes(t *testing.T) {
	for _, n := range []int{1024, 5000} {
		for _, k := range []int{2, 10, 41} {
			for _, spread := range []float64{0.15, 1} {
				pts := unitRows(int64(n+k), n, 64, k, spread)
				for _, procs := range []int{1, 4} {
					setProcs(t, procs)
					requireMatchesLloyd(t, pts, Config{K: k, Seed: int64(k)})
				}
			}
		}
	}
}

// TestBoundedMatchesLloydOnTies: duplicate points and exact distance
// ties. Small-integer lattice coordinates make every distance and every
// centroid sum exact, so distinct centroids sit at exactly equal
// distance from many points and Lloyd's lowest-index rule decides; with
// fewer distinct points than clusters, seeding duplicates a centroid,
// its higher-index copy stays empty and the repair runs.
func TestBoundedMatchesLloydOnTies(t *testing.T) {
	lattice := func(seed int64, n, d, side int) *matrix.Dense {
		rng := rand.New(rand.NewSource(seed))
		pts := matrix.NewDense(n, d)
		for i := range pts.Data() {
			pts.Data()[i] = float64(rng.Intn(side))
		}
		return pts
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			// 3^2 = 9 distinct points, 600 rows: duplicates everywhere.
			requireMatchesLloyd(t, lattice(seed, 600, 2, 3), Config{K: 4, Seed: seed})
			// k > d on a lattice: grouped bounds with ties inside groups.
			requireMatchesLloyd(t, lattice(seed, 700, 2, 5), Config{K: 9, Seed: seed})
			// k <= d, symmetric coordinates.
			requireMatchesLloyd(t, lattice(seed, 520, 6, 2), Config{K: 5, Seed: seed})
		}
	}

	repaired := 0
	setProcs(t, 1)
	for seed := int64(0); seed < 8; seed++ {
		// 4 distinct points, 6 clusters: at least two stay empty.
		_, _, repairs := requireMatchesLloyd(t, lattice(seed, 300, 2, 2), Config{K: 6, Seed: seed, MaxIter: 12})
		repaired += repairs
	}
	if repaired == 0 {
		t.Fatal("the duplicate-point fixture must force empty-cluster repairs")
	}

	// The same repairs over five update blocks, each of which keeps its
	// partial while its labels do not change: a block a repair relabels
	// must be re-summed like one the assignment changed.
	repaired = 0
	for seed := int64(0); seed < 8; seed++ {
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			_, _, repairs := requireMatchesLloyd(t, lattice(seed, 1100, 2, 2), Config{K: 6, Seed: seed, MaxIter: 12})
			repaired += repairs
		}
	}
	if repaired == 0 {
		t.Fatal("the block-partial fixture must force empty-cluster repairs")
	}
}

// TestBoundedMatchesLloydWithRepairsAtBlockCounts: the oracle on inputs
// of one, two and sixteen update blocks with K close to n, at GOMAXPROCS
// 1 and 4. The rows sit on fewer distinct points than K, so seeding
// duplicates centroids and the empty clusters are repaired. Every run
// takes the dirty-block update, so a repair that relabels a point
// without marking its block shows here as centroid bit drift.
func TestBoundedMatchesLloydWithRepairsAtBlockCounts(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{200, 150}, {500, 400}, {4000, 2000}} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		sites := make([][2]float64, tc.k-tc.k/16)
		for i := range sites {
			sites[i] = [2]float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		pts := matrix.NewDense(tc.n, 2)
		for i := 0; i < tc.n; i++ {
			site := i // every site is taken, so K - K/16 rows are distinct
			if i >= len(sites) {
				site = rng.Intn(len(sites))
			}
			copy(pts.Row(i), sites[site][:])
		}
		repaired := 0
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			_, _, repairs := requireMatchesLloyd(t, pts, Config{K: tc.k, Seed: 1, MaxIter: 3})
			repaired += repairs
		}
		t.Logf("n=%d (%d blocks) K=%d: %d repairs", tc.n, (tc.n+updateBlockRows-1)/updateBlockRows, tc.k, repaired)
		if repaired == 0 {
			t.Fatalf("n=%d K=%d: no empty-cluster repair; the fixture must force some", tc.n, tc.k)
		}
	}

	// On duplicated rows the repaired point always returns to its site's
	// older centroid in the next pass, which marks its block changed
	// anyway. Here a cluster of distinct rows empties in a later
	// iteration, and the next pass leaves the reseeded point where the
	// repair put it: only the repair's own mark re-sums its block.
	pts, err := matrix.NewDenseData(8, 1, []float64{0.007216929948703488, 0.6154057602703045, 1.1424465051196082,
		-1.1891969330517682, 0.5650537854170565, 0.6582757213711716, -1.221908723347625, -0.24326236281660196})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, repairs := requireMatchesLloyd(t, pts, Config{K: 4, Seed: 98737, MaxIter: 30}); repairs == 0 {
		t.Fatal("the distinct-row fixture must force an empty-cluster repair")
	}
}

// TestDistanceEvalsCorpusShaped: on the shape of corpus-local's embedded
// solve (3 298 overlapping unit-norm 64-dimensional rows, k = 41, tens
// of iterations) the bounds must leave at most 45 % of Lloyd's distance
// evaluations, at every GOMAXPROCS the same number.
func TestDistanceEvalsCorpusShaped(t *testing.T) {
	pts := unitRows(1, 3298, 64, 41, 4)
	setProcs(t, 1)
	got, _, _ := requireMatchesLloyd(t, pts, Config{K: 41, Seed: 1})
	lloyd := lloydEvals(3298, 41, got.Iterations)
	share := float64(got.DistanceEvals) / float64(lloyd)
	t.Logf("%d iterations, %d of Lloyd's %d distance evaluations (%.1f %%)", got.Iterations, got.DistanceEvals, lloyd, 100*share)
	if got.Iterations < 10 {
		t.Fatalf("fixture converged in %d iterations; it must overlap enough to iterate", got.Iterations)
	}
	if share > 0.45 {
		t.Fatalf("%.1f %% of Lloyd's distance evaluations, want <= 45 %%", 100*share)
	}
	for _, procs := range []int{2, 5} {
		setProcs(t, procs)
		res, err := Run(pts, Config{K: 41, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.DistanceEvals != got.DistanceEvals {
			t.Fatalf("GOMAXPROCS=%d: %d distance evaluations, %d at 1", procs, res.DistanceEvals, got.DistanceEvals)
		}
	}
}

// FuzzRunMatchesLloyd drives the oracle comparison over shape, seed and
// spread. Odd seeds draw lattice coordinates (duplicates and exact
// ties), even seeds Gaussian ones; inputs up to 800 rows span up to four
// update blocks.
func FuzzRunMatchesLloyd(f *testing.F) {
	f.Add(uint16(200), uint8(8), uint8(7), int64(3), 2.5)
	f.Add(uint16(700), uint8(3), uint8(17), int64(4), 1.0)
	f.Add(uint16(600), uint8(2), uint8(6), int64(5), 3.0)
	f.Add(uint16(50), uint8(5), uint8(50), int64(6), 0.5)
	f.Add(uint16(640), uint8(40), uint8(30), int64(8), 0.2)
	f.Fuzz(func(t *testing.T, nRaw uint16, dRaw, kRaw uint8, seed int64, spread float64) {
		n := 1 + int(nRaw)%800
		d := 1 + int(dRaw)%48
		k := 1 + int(kRaw)%min(n, 48)
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		spread = math.Mod(math.Abs(spread), 16)
		rng := rand.New(rand.NewSource(seed))
		pts := matrix.NewDense(n, d)
		for i := 0; i < n; i++ {
			row := pts.Row(i)
			c := float64(rng.Intn(k))
			for j := range row {
				if seed%2 != 0 {
					row[j] = math.Round(c + spread*rng.NormFloat64())
				} else {
					row[j] = c + spread*rng.NormFloat64()
				}
			}
		}
		setProcs(t, 1+int(uint64(seed)>>1%4))
		requireMatchesLloyd(t, pts, Config{K: k, Seed: seed, MaxIter: 30})
	})
}

// TestRunWorkerDeterminismWithInertia: labels AND inertia bits must not
// depend on GOMAXPROCS — the inertia fold reduces fixed-block partials
// in block order regardless of parallelism.
func TestRunWorkerDeterminismWithInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := matrix.NewDense(1200, 6)
	for i := range pts.Data() {
		pts.Data()[i] = rng.NormFloat64()
	}
	setProcs(t, 1)
	base, err := Run(pts, Config{K: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 3, 8, 16} {
		setProcs(t, procs)
		res, err := Run(pts, Config{K: 9, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("GOMAXPROCS=%d: label[%d] = %d vs %d", procs, i, res.Labels[i], base.Labels[i])
			}
		}
		if res.Inertia != base.Inertia {
			t.Fatalf("GOMAXPROCS=%d: inertia %v vs %v (must be bitwise equal)", procs, res.Inertia, base.Inertia)
		}
	}
}

// TestParallelCentroidUpdate: the centroid update sums fixed-block
// partials in block order, so labels, iterations, every centroid bit and
// the inertia bits are the same at every GOMAXPROCS, at n = 700, 4000,
// 4096 and 8192.
func TestParallelCentroidUpdate(t *testing.T) {
	gauss := func(seed int64, n, d int) *matrix.Dense {
		rng := rand.New(rand.NewSource(seed))
		pts := matrix.NewDense(n, d)
		for i := range pts.Data() {
			pts.Data()[i] = rng.NormFloat64()
		}
		return pts
	}
	requireProcsInvariant := func(pts *matrix.Dense, cfg Config, procsList ...int) {
		t.Helper()
		setProcs(t, 1)
		seq, err := Run(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range procsList {
			setProcs(t, procs)
			res, err := Run(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != seq.Iterations {
				t.Fatalf("n=%d GOMAXPROCS=%d: %d iterations vs %d at 1", pts.Rows(), procs, res.Iterations, seq.Iterations)
			}
			for i := range seq.Labels {
				if res.Labels[i] != seq.Labels[i] {
					t.Fatalf("n=%d GOMAXPROCS=%d: label[%d] = %d vs %d at 1", pts.Rows(), procs, i, res.Labels[i], seq.Labels[i])
				}
			}
			rd, sd := res.Centroids.Data(), seq.Centroids.Data()
			for i := range sd {
				if math.Float64bits(rd[i]) != math.Float64bits(sd[i]) {
					t.Fatalf("n=%d GOMAXPROCS=%d: centroid word %d is %v vs %v at 1", pts.Rows(), procs, i, rd[i], sd[i])
				}
			}
			if math.Float64bits(res.Inertia) != math.Float64bits(seq.Inertia) {
				t.Fatalf("n=%d GOMAXPROCS=%d: inertia %v vs %v at 1", pts.Rows(), procs, res.Inertia, seq.Inertia)
			}
		}
	}

	for _, n := range []int{4000, 4096, 8192} {
		requireProcsInvariant(gauss(int64(n), n, 16), Config{K: 12, Seed: 7}, 4)
	}

	requireProcsInvariant(gauss(13, 700, 5), Config{K: 6, Seed: 3}, 2, 4, 7)
}

// TestAccumulateParallelMatchesSequential pins the block-partial
// reduction against a plain row-order accumulation, and a call that
// re-sums only one dirty block against a fresh call that re-sums them
// all, bit for bit.
func TestAccumulateParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, k, d := 900, 7, 4
	pts := matrix.NewDense(n, d)
	for i := range pts.Data() {
		pts.Data()[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	seqCounts := make([]int, k)
	seqSums := matrix.NewDense(k, d)
	for i, c := range labels {
		seqCounts[c]++
		matrix.AXPY(1, pts.Row(i), seqSums.Row(c))
	}
	nb := (n + updateBlockRows - 1) / updateBlockRows
	allDirty := func() []bool {
		dirty := make([]bool, nb)
		for b := range dirty {
			dirty[b] = true
		}
		return dirty
	}

	parCounts := make([]int, k)
	parSums := matrix.NewDense(k, d)
	setProcs(t, 4)
	upd := newUpdateScratch(n, k, d)
	accumulate(pts, labels, parCounts, parSums, upd, allDirty())
	for c := 0; c < k; c++ {
		if parCounts[c] != seqCounts[c] {
			t.Fatalf("count[%d] = %d vs %d", c, parCounts[c], seqCounts[c])
		}
		for j := 0; j < d; j++ {
			if math.Abs(parSums.At(c, j)-seqSums.At(c, j)) > 1e-10*(1+math.Abs(seqSums.At(c, j))) {
				t.Fatalf("sum[%d][%d] = %v vs %v", c, j, parSums.At(c, j), seqSums.At(c, j))
			}
		}
	}

	// Relabel rows of block 2 only and re-sum just that block.
	for i := 2 * updateBlockRows; i < 2*updateBlockRows+40; i++ {
		labels[i] = (labels[i] + 1) % k
	}
	dirty := make([]bool, nb)
	dirty[2] = true
	accumulate(pts, labels, parCounts, parSums, upd, dirty)
	freshCounts := make([]int, k)
	freshSums := matrix.NewDense(k, d)
	accumulate(pts, labels, freshCounts, freshSums, newUpdateScratch(n, k, d), allDirty())
	for c := 0; c < k; c++ {
		if parCounts[c] != freshCounts[c] {
			t.Fatalf("after a dirty-block update: count[%d] = %d vs %d", c, parCounts[c], freshCounts[c])
		}
	}
	for i, v := range freshSums.Data() {
		if math.Float64bits(parSums.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("after a dirty-block update: sum word %d = %v vs %v", i, parSums.Data()[i], v)
		}
	}
}
