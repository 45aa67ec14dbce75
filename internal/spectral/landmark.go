package spectral

// This file is the landmark solve of the per-bucket engine: Nyström
// spectral clustering inside one bucket (the landmark step of PAPERS.md
// arXiv:2104.15042). Its algebra, ClusterLandmarkRows, is also the whole
// of baseline.NYST, which feeds it sampled rows. m landmarks are fitted
// to the bucket; the m×m landmark block W and the Ni×m cross
// block C stand in for the Ni×Ni sub-Gram; W's top eigenpairs extend to
// every row as degree-normalised Nyström eigenvectors, and k-means
// clusters their normalised rows. The working set is the 8·Ni·m bytes
// of C, and k-means runs in at most K dimensions.
//
// The landmarks are k-means centroids, not sampled rows (the improved
// Nyström approximation of Zhang, Tsang & Kwok, ICML 2008): a short
// k-means with k = m on a uniform sample of 8·m rows. Uniformly sampled
// rows cost pair recall on the document corpus at 10⁵ and 2²⁰ documents,
// where the bucket kernel is flat; the centroids gain it back for
// O(m²·d) work (EXPERIMENTS.md, "Landmark vs RFF").
//
// It shares the embed family's gate and budget with the random Fourier
// feature solve (embedded.go): a bucket the embed policy claims goes
// here when 4·K fits the feature map's width, and to the RFF solve when
// it does not. Landmarks win on few-cluster buckets (memory, time and
// accuracy); RFF wins on buckets with many clusters, where m would have
// to grow past the budget to keep the spectrum (DESIGN.md, "Embedding
// engine").

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/linalg"
	"repro/internal/matrix"
)

// SolverLandmark is the landmark solve of the engine policy: Nyström
// eigenvectors from m landmarks + k-means, no Gram.
const SolverLandmark = "landmark"

const (
	// landmarksPerCluster is the landmark route's price per cluster: a
	// bucket takes it when landmarksPerCluster·K fits the embed budget,
	// and never draws fewer landmarks than that.
	landmarksPerCluster = 4
	// landmarkSalt decorrelates the landmark fit from the final k-means
	// seeding, which uses the bucket seed itself.
	landmarkSalt int64 = 0x6c616e646d61726b // "landmark"
	// landmarkSampleRows is how many sampled rows per landmark the
	// landmark k-means fits on, and landmarkIters its Lloyd iterations.
	landmarkSampleRows = 8
	landmarkIters      = 5
	// landmarkBlockRows is the row block of the projection pass.
	landmarkBlockRows = 64
)

// errLandmarkRank reports a landmark block whose spectrum cannot
// separate the bucket.
var errLandmarkRank = errors.New("spectral: landmark block has too few positive eigenvalues")

// Landmarks is the embed family's route gate: for a bucket of ni rows
// that Embeds claims, the number of landmarks its landmark solve fits —
// min(ni, max(4·K, Dim/2)), never above the feature map's width Dim —
// or 0 when the bucket is not embedded or 4·K exceeds Dim, so it takes
// the random Fourier feature solve. ClusterBucket routes by it, and a
// memory plan or cost model asks it too.
func (c EngineConfig) Landmarks(ni int) int {
	if !c.Embeds(ni) {
		return 0
	}
	budget := c.Embedder.Dim()
	if landmarksPerCluster*c.K > budget {
		return 0
	}
	return min(ni, max(landmarksPerCluster*c.K, budget/2))
}

// ClusterLandmarkRows is the Nyström algebra on given landmark rows L,
// shared by the engine's landmark solve and baseline.NYST: kernel blocks
// W = k(L, L) and C = k(rows, L), the top min(k, rank) eigenpairs of W
// extended to every row as C·U·Λ⁻¹ / √(C·W⁺·Cᵀ1), row normalisation,
// and k-means at k seeded by seed. C is built in *scratch (grown as
// needed) and the embedding overwrites it in place. It is a pure
// function of (rows, landmarks, kf, k, seed): the labels do not depend
// on the scratch or on GOMAXPROCS. A landmark block with fewer than
// min(k, 2) eigenvalues above 1e-12 — landmarks of coincident rows, say,
// whose one-column embedding normalises to a constant — is an error.
func ClusterLandmarkRows(rows, landmarks *matrix.Dense, kf kernel.Kernel, k int, seed int64, scratch *[]float64) (*Result, error) {
	n, m := rows.Rows(), landmarks.Rows()
	switch {
	case k <= 0:
		return nil, fmt.Errorf("%w: K=%d", ErrBadInput, k)
	case n == 0:
		return &Result{Labels: []int{}, Eigenvalues: []float64{}}, nil
	case m < 1 || m > n || landmarks.Cols() != rows.Cols():
		return nil, fmt.Errorf("%w: %dx%d landmarks for %dx%d rows", ErrBadInput, m, landmarks.Cols(), n, rows.Cols())
	}
	k = min(k, n)

	w := matrix.NewDense(m, m)
	if err := kernel.CrossGramInto(w, landmarks, landmarks, kf); err != nil {
		return nil, err
	}
	if cap(*scratch) < n*m {
		*scratch = make([]float64, n*m)
	}
	buf := (*scratch)[:n*m]
	c, err := matrix.NewDenseData(n, m, buf)
	if err != nil {
		return nil, err
	}
	if err := kernel.CrossGramInto(c, rows, landmarks, kf); err != nil {
		return nil, err
	}

	vals, vecs, err := linalg.EigenSym(w)
	if err != nil {
		return nil, fmt.Errorf("spectral: landmark eigensolve: %w", err)
	}
	kp := 0
	for kp < min(k, m) && vals[kp] > 1e-12 {
		kp++
	}
	if kp < min(k, 2) {
		return nil, fmt.Errorf("%w: %d for K=%d", errLandmarkRank, kp, k)
	}

	// Pᵀ: the k′ extension columns U·Λ⁻¹, then y = W⁺(Cᵀ1), whose dot
	// with a row of C is that row's approximate degree.
	colSums := make([]float64, m)
	for i := 0; i < n; i++ {
		for j, v := range c.Row(i) {
			colSums[j] += v
		}
	}
	pt := make([]float64, (kp+1)*m)
	y := pt[kp*m:]
	for j, lambda := range vals {
		if math.Abs(lambda) < 1e-10 {
			continue
		}
		uj := vecs.Col(j)
		if j < kp {
			row := pt[j*m : (j+1)*m]
			for t, v := range uj {
				row[t] = v / lambda
			}
		}
		matrix.AXPY(matrix.Dot(uj, colSums)/lambda, uj, y)
	}

	// Project C a block of rows at a time. Embedding row i lands at
	// buf[i·k′:], which never reaches a row of C not yet projected
	// (k′ ≤ m), so the embedding overwrites C in place.
	w1 := kp + 1
	out := make([]float64, landmarkBlockRows*w1)
	for i0 := 0; i0 < n; i0 += landmarkBlockRows {
		i1 := min(i0+landmarkBlockRows, n)
		o := out[:(i1-i0)*w1]
		matrix.DotBlock(buf[i0*m:i1*m], i1-i0, pt, w1, m, o)
		for i := i0; i < i1; i++ {
			proj := o[(i-i0)*w1 : (i-i0+1)*w1]
			row := buf[i*kp : (i+1)*kp]
			deg := proj[kp]
			if deg <= 1e-12 {
				clear(row)
				continue
			}
			s := 1 / math.Sqrt(deg)
			for j := range row {
				row[j] = proj[j] * s
			}
		}
	}
	emb, err := matrix.NewDenseData(n, kp, buf[:n*kp])
	if err != nil {
		return nil, err
	}
	matrix.NormalizeRows(emb)
	km, err := kmeans.Run(emb, kmeans.Config{K: k, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("spectral: landmark kmeans: %w", err)
	}
	return &Result{Labels: km.Labels, Eigenvalues: vals[:kp], Inertia: km.Inertia}, nil
}

// fitLandmarks returns the m landmarks of a bucket's rows: the
// centroids of landmarkIters Lloyd iterations of k-means at k = m,
// seeded by seed, on min(n, 8·m) rows drawn uniformly by seed.
func fitLandmarks(rows *matrix.Dense, m int, seed int64) (*matrix.Dense, error) {
	n := rows.Rows()
	s := min(n, landmarkSampleRows*m)
	sample := matrix.NewDense(s, rows.Cols())
	matrix.GatherRows(sample.Data(), rows, sampleRows(n, s, seed))
	km, err := kmeans.Run(sample, kmeans.Config{K: m, Seed: seed, MaxIter: landmarkIters})
	if err != nil {
		return nil, fmt.Errorf("spectral: landmark fit: %w", err)
	}
	return km.Centroids, nil
}

// sampleRows returns m distinct indices of [0, n), ascending, drawn
// uniformly by Floyd's algorithm in O(m) memory.
func sampleRows(n, m int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	picked := make([]int, 0, m)
	for j := n - m; j < n; j++ {
		t := rng.Intn(j + 1)
		if slices.Contains(picked, t) {
			t = j
		}
		picked = append(picked, t)
	}
	slices.Sort(picked)
	return picked
}

// clusterLandmark runs the landmark solve for the engine on m
// landmarks fitted to the bucket by fitLandmarks. The bucket's rows are
// used in place when they are the whole of points, and gathered
// otherwise. Errors are returned for the caller's fallback, as the
// embedded solve's are.
func clusterLandmark(points *matrix.Dense, indices []int, kf kernel.Kernel, m int, cfg EngineConfig, scratch *[]float64) (*Result, SolveStats, error) {
	start := time.Now()
	ni := len(indices)
	stats := SolveStats{
		Solver:    SolverLandmark,
		N:         ni,
		NNZ:       int64(ni) * int64(m),
		Fill:      float64(m) / float64(ni),
		GramBytes: embed.Bytes(ni, m),
	}
	rows := points
	if !isIdentity(indices, points.Rows()) {
		rows = matrix.NewDense(ni, points.Cols())
		matrix.GatherRows(rows.Data(), points, indices)
	}
	lm, err := fitLandmarks(rows, m, cfg.Seed^landmarkSalt)
	var res *Result
	if err == nil {
		res, err = ClusterLandmarkRows(rows, lm, kf, cfg.K, cfg.Seed, scratch)
	}
	stats.Nanos = time.Since(start).Nanoseconds()
	return res, stats, err
}

// isIdentity reports whether indices lists 0, 1, …, n-1.
func isIdentity(indices []int, n int) bool {
	if len(indices) != n {
		return false
	}
	for i, v := range indices {
		if v != i {
			return false
		}
	}
	return true
}
