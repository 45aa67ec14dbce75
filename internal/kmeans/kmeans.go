// Package kmeans implements Lloyd's algorithm with k-means++ seeding,
// the final step of every spectral-clustering variant in the paper
// (SC, PSC, NYST and DASC all run K-means on rows of the eigenvector
// matrix), and the whole solve of an embedded bucket.
//
// The result is exactly Lloyd's — every label, centroid bit, iteration
// count and the inertia equal those of a full scan with ascending-index
// tie-breaking — but it is computed with fewer distance evaluations,
// each of them cheaper:
//
//   - every squared distance goes through the micro-tiled kernels
//     matrix.SqDistBlock / matrix.SqDist4, four pairs per pass and
//     bit-for-bit matrix.SqDist on each;
//   - each point keeps an upper bound on the distance to its centroid
//     and one lower bound per centroid group (min(k, d) contiguous index
//     groups — one per centroid whenever k ≤ d). Hamerly's global test
//     comes first; a point that fails it evaluates only the groups whose
//     bound does not clear its tightened upper bound;
//   - the distances seeding evaluates (every point against every seed)
//     are Lloyd's first scan, and are folded into the bounds as such;
//   - the last update is skipped when it provably cannot move anything,
//     and the final inertia is folded into the last assignment pass.
//
// The bounds are used only with strict, slightly padded inequalities,
// so a centroid is left unevaluated only when it is provably strictly
// farther than the assigned one, and the evaluated ones are compared in
// ascending index with a strict `<`, as Lloyd's scan does. This keeps
// labels byte-identical to the plain implementation, which the DASC
// determinism guarantees rest on. The assignment pass and the centroid
// update run over fixed 256-row blocks on internal/par, with per-block
// partials reduced in block order — an update partial is kept across
// iterations and re-summed only when its block's labels changed; empty
// clusters are repaired by re-seeding from the point farthest from its
// centroid.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
)

// Config controls a K-means run. The zero value of optional fields is
// replaced by defaults in Run.
type Config struct {
	// K is the number of clusters; required, 1 <= K <= number of points.
	K int
	// MaxIter bounds the number of Lloyd iterations (default 100).
	MaxIter int
	// Tol stops iteration when total centroid movement falls below it
	// (default 1e-6).
	Tol float64
	// Seed makes runs reproducible.
	Seed int64
}

// Result is the outcome of a K-means run.
type Result struct {
	// Labels[i] is the cluster index of point i, in [0, K).
	Labels []int
	// Centroids is the K x d matrix of cluster centers.
	Centroids *matrix.Dense
	// Inertia is the summed squared distance of points to their centroid.
	Inertia float64
	// Iterations actually performed.
	Iterations int
	// DistanceEvals is the number of exact point-to-centroid distance
	// evaluations the run made: seeding, upper-bound tightening, group
	// scans and the inertia fold. Lloyd's algorithm makes
	// n·K·(Iterations+2) of them. It is summed from per-block counts, so
	// it is the same at every GOMAXPROCS. The K² centroid-to-centroid
	// distances per iteration and the sweep of an empty-cluster repair
	// are not included.
	DistanceEvals int64
}

// ErrBadK is returned when K is out of range for the dataset.
var ErrBadK = errors.New("kmeans: K out of range")

const (
	// assignBlockRows is the fixed row-block edge of the assignment and
	// inertia passes. Blocks depend on n alone, and block partials are
	// reduced in block order, so inertia bits are identical for every
	// parallelism level.
	assignBlockRows = 256
	// updateBlockRows is the fixed row-block edge of the block-partial
	// centroid update. It is the assignment block, so a block the
	// assignment pass leaves unchanged keeps its update partial.
	updateBlockRows = assignBlockRows
	// boundsPad slightly shrinks the bound-skip region to absorb the
	// ulp-level rounding the drifted bounds accumulate, keeping the
	// skip decisions provably label-preserving.
	boundsPad = 1 + 1e-10
	// pairBatch is how many (point, centroid) pairs a block collects
	// before one kernel sweep evaluates them. Batching across points
	// keeps all four lanes of the micro-tile full when each point has
	// only one or two centroids left to check; 1024 pairs of indices and
	// distances are 24 KiB per worker.
	pairBatch = 1024
)

// boundsState carries the distance bounds across iterations.
//
// Centroids are split into groups = min(k, d) contiguous index ranges,
// so the n x groups table of lower bounds is never larger than the
// input rows, and is one bound per centroid whenever k <= d.
type boundsState struct {
	groups  int   // number of centroid groups, at least 1
	start   []int // groups+1 boundaries: group g is centroids [start[g], start[g+1])
	groupOf []int // per centroid: the group it belongs to

	upper []float64 // per point: upper bound on the distance to its centroid
	// lower[i*groups+g] bounds from below the distance from point i to
	// every centroid of group g other than the one i is assigned to.
	lower []float64
	half  []float64 // per centroid: half the distance to the nearest other centroid

	// Movement of the last update, by which the next assignment pass
	// loosens every bound before it zeroes them: per centroid, and per
	// group the largest in it.
	moveDist  []float64
	groupMove []float64

	pairDist []float64 // refreshHalf's row of centroid-to-centroid distances
	// Per fixed block, so that the totals do not depend on which goroutine
	// ran which block.
	blockChanged []bool
	blockEvals   []int64

	// free holds the working memory of the goroutines that have run an
	// assignment pass, for the next pass to reuse: as many as the widest
	// pass had, one at GOMAXPROCS=1.
	mu   sync.Mutex
	free []*assignScratch
}

// assignScratch is the working memory of one goroutine of an assignment
// pass.
type assignScratch struct {
	need []int     // rows of the block whose label the bounds could not prove
	d2   []float64 // per need entry: exact squared distance to the row's centroid
	// open lists, per need entry and in ascending order, the groups whose
	// bound does not strictly clear the row's padded upper bound; entry
	// j's groups end at openEnd[j].
	open    []int
	openEnd []int

	rows     []int     // need entries whose pairs sit in the current batch …
	rowsOpen [][]int   // … each with the groups still open after the re-gate
	pi       []int     // batch of pairs: point index …
	ci       []int     // … and centroid index
	dist     []float64 // … and their evaluated squared distance
}

func newBoundsState(n, k, d int) *boundsState {
	groups := max(1, min(k, d))
	nb := (n + assignBlockRows - 1) / assignBlockRows
	st := &boundsState{
		groups:       groups,
		start:        make([]int, groups+1),
		groupOf:      make([]int, k),
		upper:        make([]float64, n),
		lower:        make([]float64, n*groups),
		half:         make([]float64, k),
		moveDist:     make([]float64, k),
		groupMove:    make([]float64, groups),
		pairDist:     make([]float64, k),
		blockChanged: make([]bool, nb),
		blockEvals:   make([]int64, nb),
	}
	for g := 0; g <= groups; g++ {
		st.start[g] = g * k / groups
	}
	for g := 0; g < groups; g++ {
		for c := st.start[g]; c < st.start[g+1]; c++ {
			st.groupOf[c] = g
		}
	}
	for i := range st.upper {
		st.upper[i] = math.Inf(1) // observeSeed's running minimum
	}
	return st
}

// takeScratch lends one pass goroutine its working memory: a set an
// earlier pass returned, or a new one.
func (st *boundsState) takeScratch() *assignScratch {
	st.mu.Lock()
	defer st.mu.Unlock()
	if last := len(st.free) - 1; last >= 0 {
		sc := st.free[last]
		st.free = st.free[:last]
		return sc
	}
	k := len(st.groupOf)
	return &assignScratch{
		need:     make([]int, 0, assignBlockRows),
		d2:       make([]float64, assignBlockRows),
		open:     make([]int, assignBlockRows*st.groups),
		openEnd:  make([]int, 0, assignBlockRows),
		rows:     make([]int, 0, assignBlockRows),
		rowsOpen: make([][]int, 0, assignBlockRows),
		pi:       make([]int, 0, pairBatch+k),
		ci:       make([]int, 0, pairBatch+k),
		dist:     make([]float64, pairBatch+k),
	}
}

func (st *boundsState) putScratch(sc *assignScratch) {
	st.mu.Lock()
	st.free = append(st.free, sc)
	st.mu.Unlock()
}

// refreshHalf recomputes, for every centroid, half the distance to the
// nearest other centroid — O(k^2 d), negligible next to the O(n k d)
// scans it prevents.
func (st *boundsState) refreshHalf(centroids *matrix.Dense) {
	k, d := centroids.Rows(), centroids.Cols()
	for c := range st.half {
		st.half[c] = math.Inf(1)
	}
	for a := 0; a+1 < k; a++ {
		out := st.pairDist[:k-a-1]
		matrix.SqDistBlock(centroids.Row(a), centroids.Data()[(a+1)*d:], k-a-1, out)
		for j, d2 := range out {
			b := a + 1 + j
			h := 0.5 * math.Sqrt(d2)
			if h < st.half[a] {
				st.half[a] = h
			}
			if h < st.half[b] {
				st.half[b] = h
			}
		}
	}
}

// observeSeed folds the squared distances d2 from seed c to points lo,
// lo+1, … into the labels and bounds, replaying Lloyd's scan one
// centroid at a time: seeds arrive in ascending index, a point's label
// changes only on a strictly smaller distance. Until seeded is called
// the bounds hold squared distances: upper the smallest so far, second
// the smallest among the other seeds of the leader's group, and lower,
// per group, the smallest in the group (the leader's own when it is in
// the group).
func (st *boundsState) observeSeed(c, lo int, d2 []float64, labels []int, second []float64) {
	t, g := st.groups, st.groupOf[c]
	opensGroup := c == st.start[g]
	for j, dd := range d2 {
		i := lo + j
		inGroup := math.Inf(1) // smallest so far in c's group
		if !opensGroup {
			inGroup = st.lower[i*t+g]
		}
		switch {
		case dd < st.upper[i]:
			labels[i], st.upper[i], second[i] = c, dd, inGroup
			st.lower[i*t+g] = dd
		case !opensGroup && st.groupOf[labels[i]] == g:
			if dd < second[i] {
				second[i] = dd
			}
		default:
			if dd < inGroup {
				inGroup = dd
			}
			st.lower[i*t+g] = inGroup
		}
	}
}

// seeded turns the squared distances observeSeed gathered into bounds:
// each point's upper bound is the distance to its seed, each group's
// lower bound the distance to the group's nearest seed other than the
// point's own.
func (st *boundsState) seeded(labels []int, second []float64) {
	t := st.groups
	for i, a := range labels {
		st.upper[i] = math.Sqrt(st.upper[i])
		lg := st.lower[i*t : (i+1)*t]
		for g, v := range lg {
			lg[g] = math.Sqrt(v)
		}
		lg[st.groupOf[a]] = math.Sqrt(second[i])
	}
}

// moved completes the record of an update that filled st.moveDist: each
// group's movement is the largest of its centroids'.
func (st *boundsState) moved() {
	for g := range st.groupMove {
		var m float64
		for _, v := range st.moveDist[st.start[g]:st.start[g+1]] {
			if v > m {
				m = v
			}
		}
		st.groupMove[g] = m
	}
}

// reset invalidates point i's bounds after a repair teleported its
// centroid onto it: distance zero, no knowledge of any other centroid.
func (st *boundsState) reset(i int) {
	st.upper[i] = 0
	clear(st.lower[i*st.groups : (i+1)*st.groups])
}

// Run clusters the rows of points into cfg.K clusters.
func Run(points *matrix.Dense, cfg Config) (*Result, error) {
	n := points.Rows()
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("%w: K=%d with %d points", ErrBadK, cfg.K, n)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := points.Cols()

	labels := make([]int, n)
	st := newBoundsState(n, cfg.K, d)
	// Seeding evaluates every point against every seed: exactly the
	// distances of Lloyd's first scan. Folding them into the labels and
	// bounds as they are computed leaves the first assignment pass only
	// the near-ties to look at.
	second := make([]float64, n)
	centroids := seedPlusPlus(points, cfg.K, rng, func(c, lo int, d2 []float64) {
		st.observeSeed(c, lo, d2, labels, second)
	})
	st.seeded(labels, second)
	evals := int64(n) * int64(cfg.K)
	counts := make([]int, cfg.K)
	sums := matrix.NewDense(cfg.K, d)
	upd := newUpdateScratch(n, cfg.K, d)

	// stable: the last update repaired no empty cluster and moved every
	// centroid by a finite amount, so the centroids are exactly the means
	// of the current labels.
	stable := false
	// dirty marks the update blocks whose kept partial is stale: all of
	// them before the first update, then the blocks whose labels the
	// assignment pass or a repair changed.
	dirty := make([]bool, len(st.blockChanged))
	for b := range dirty {
		dirty[b] = true
	}
	var iter int
	for iter = 0; iter < cfg.MaxIter; iter++ {
		st.refreshHalf(centroids)
		changed, e := assignBounded(points, centroids, labels, st, nil)
		evals += e
		if stable && !changed {
			// Same labels as the pass before: accumulate and the division
			// would reproduce the centroids bit for bit, so Lloyd measures
			// a movement of exactly 0 here and stops. Stop without the
			// n·d pass.
			iter++
			break
		}
		for b, ch := range st.blockChanged {
			dirty[b] = dirty[b] || ch
		}
		accumulate(points, labels, counts, sums, upd, dirty)
		clear(dirty)

		var moved float64
		repaired := false
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// current centroid, the standard repair.
				far := farthestPoint(points, centroids, labels)
				copy(sums.Row(c), points.Row(far))
				counts[c] = 1
				labels[far] = c
				st.reset(far)
				dirty[far/updateBlockRows] = true
				repaired = true
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
			move := math.Sqrt(delta)
			st.moveDist[c] = move
			moved += move
		}
		st.moved()
		stable = !repaired && moved <= math.MaxFloat64
		if moved < cfg.Tol {
			iter++
			break
		}
	}
	// Final assignment with the inertia fold: one pass produces both the
	// labels for the converged centroids and the exact summed squared
	// distances, replacing the historical separate full-data sweep.
	st.refreshHalf(centroids)
	partials := make([]float64, len(st.blockEvals))
	_, e := assignBounded(points, centroids, labels, st, partials)
	evals += e
	var inertia float64
	for _, v := range partials {
		inertia += v
	}
	return &Result{Labels: labels, Centroids: centroids, Inertia: inertia, Iterations: iter, DistanceEvals: evals}, nil
}

// assignBounded writes the index of the nearest centroid for every
// point into labels — exactly the label a full Lloyd scan (strict
// d < best, ascending centroid index) would write — and reports whether
// any label changed and how many distances it evaluated. Both are
// gathered per fixed 256-row block, so neither depends on how many
// goroutines the pass ran on.
//
// When inertiaPartials is non-nil it receives one partial per block —
// the exact squared distance of each point to its final centroid,
// accumulated in row order. Summing the partials in block order yields
// an inertia that is bitwise independent of that too.
func assignBounded(points, centroids *matrix.Dense, labels []int, st *boundsState, inertiaPartials []float64) (changed bool, evals int64) {
	nb := len(st.blockEvals)
	// assignBlock cannot fail.
	_ = par.Workers(nb, nb, func(next func() (int, bool)) error {
		sc := st.takeScratch()
		defer st.putScratch(sc)
		for b, ok := next(); ok; b, ok = next() {
			inertia := st.assignBlock(points, centroids, labels, b, sc, inertiaPartials != nil)
			if inertiaPartials != nil {
				inertiaPartials[b] = inertia
			}
		}
		return nil
	})
	clear(st.moveDist)
	clear(st.groupMove)
	for b := 0; b < nb; b++ {
		changed = changed || st.blockChanged[b]
		evals += st.blockEvals[b]
	}
	return changed, evals
}

// assignBlock assigns the rows of block b in four steps, each over
// the whole block so that the distance kernel always has four pairs to
// work on:
//
//  1. gate: loosen the bounds by the last update's movements; a row is
//     proven — its centroid is the unique strict minimizer — when its
//     padded upper bound clears half the distance from its centroid to
//     the nearest other one, or every group bound (Hamerly's test: the
//     smallest group bound is his single lower bound). Keep the other
//     rows, each with the list of groups it does not clear. When the
//     inertia is wanted every row is kept, since that needs every row's
//     exact distance anyway;
//  2. tighten: the exact distance of each kept row to its own centroid
//     becomes its upper bound;
//  3. re-gate with the tightened bound, and for each row still unproven
//     collect the centroids of the groups it still does not clear;
//  4. evaluate the collected pairs and replay Lloyd's scan over them.
//
// It returns the block's inertia partial when withInertia is set.
func (st *boundsState) assignBlock(points, centroids *matrix.Dense, labels []int, b int, sc *assignScratch, withInertia bool) float64 {
	t := st.groups
	lo := b * assignBlockRows
	hi := min(lo+assignBlockRows, len(labels))
	sc.need, sc.openEnd = sc.need[:0], sc.openEnd[:0]
	nOpen := 0
	for i := lo; i < hi; i++ {
		a := labels[i]
		u := st.upper[i] + st.moveDist[a]
		st.upper[i] = u
		upad := u * boundsPad
		lg := st.lower[i*t : (i+1)*t]
		proven := true
		if upad < st.half[a] {
			loosen(lg, st.groupMove)
		} else if end := loosenOpen(lg, st.groupMove, upad, sc.open, nOpen); end > nOpen {
			nOpen, proven = end, false
		}
		if withInertia || !proven {
			sc.need = append(sc.need, i)
			sc.openEnd = append(sc.openEnd, nOpen)
		}
	}

	sc.ci = sc.ci[:0]
	for _, i := range sc.need {
		sc.ci = append(sc.ci, labels[i])
	}
	d2 := sc.d2[:len(sc.need)]
	evalPairs(points, centroids, sc.need, sc.ci, d2)
	st.blockEvals[b] = int64(len(d2))

	st.blockChanged[b] = false
	sc.ci = sc.ci[:0] // sc.rows, sc.rowsOpen and sc.pi are left empty by scanBatch
	from := 0
	for j, i := range sc.need {
		open := sc.open[from:sc.openEnd[j]]
		from = sc.openEnd[j]
		a := labels[i]
		u := math.Sqrt(d2[j])
		st.upper[i] = u
		upad := u * boundsPad
		if upad < st.half[a] {
			continue
		}
		lg := st.lower[i*t : (i+1)*t]
		still := 0
		for _, g := range open {
			if upad < lg[g] {
				continue
			}
			open[still] = g
			still++
			for c := st.start[g]; c < st.start[g+1]; c++ {
				if c != a {
					sc.pi = append(sc.pi, i)
					sc.ci = append(sc.ci, c)
				}
			}
		}
		if still == 0 {
			continue
		}
		sc.rows = append(sc.rows, j)
		sc.rowsOpen = append(sc.rowsOpen, open[:still])
		if len(sc.pi) >= pairBatch {
			st.scanBatch(points, centroids, labels, b, sc)
		}
	}
	st.scanBatch(points, centroids, labels, b, sc)

	var inertia float64
	if withInertia {
		for _, v := range d2 {
			inertia += v
		}
	}
	return inertia
}

// loosen subtracts each group's movement from a point's group bounds.
func loosen(lg, groupMove []float64) {
	lg = lg[:len(groupMove)]
	for g, mv := range groupMove {
		lg[g] -= mv
	}
}

// loosenOpen is loosen for a point whose padded upper bound is upad: it
// also writes the groups whose loosened bound does not strictly clear
// upad into open[n:], in ascending order, and returns the new n.
func loosenOpen(lg, groupMove []float64, upad float64, open []int, n int) int {
	lg = lg[:len(groupMove)]
	for g, mv := range groupMove {
		v := lg[g] - mv
		lg[g] = v
		if !(upad < v) {
			open[n] = g
			n++
		}
	}
	return n
}

// scanBatch evaluates the batch's pairs in one kernel sweep and replays
// Lloyd's scan for each of its rows, then empties the batch.
func (st *boundsState) scanBatch(points, centroids *matrix.Dense, labels []int, b int, sc *assignScratch) {
	dist := sc.dist[:len(sc.pi)]
	evalPairs(points, centroids, sc.pi, sc.ci, dist)
	st.blockEvals[b] += int64(len(dist))
	for r, j := range sc.rows {
		i := sc.need[j]
		a := labels[i]
		best, bestD, used := st.scan(i, a, sc.d2[j], sc.rowsOpen[r], dist)
		dist = dist[used:]
		if best != a {
			labels[i] = best
			st.blockChanged[b] = true
		}
		st.upper[i] = math.Sqrt(bestD)
		sc.d2[j] = bestD
	}
	sc.rows, sc.rowsOpen, sc.pi, sc.ci = sc.rows[:0], sc.rowsOpen[:0], sc.pi[:0], sc.ci[:0]
}

// scan replays Lloyd's scan for point i, assigned to a at exact squared
// distance d2a. open lists the groups whose bound does not strictly
// clear the point's padded upper bound, and dist holds, in ascending
// centroid index, the squared distance to every centroid of those
// groups other than a. The centroids of a cleared group are strictly
// farther than a and can neither win nor tie. The candidates — a among
// them, at its place in the order even when its own group is cleared —
// are compared in ascending index with a strict `<`, so ties resolve to
// the lowest index as in Lloyd's scan. Every open group's bound becomes
// the exact distance to its nearest centroid other than the winner. It
// returns the winner, its squared distance, and how many entries of
// dist it consumed.
func (st *boundsState) scan(i, a int, d2a float64, open []int, dist []float64) (best int, bestD float64, used int) {
	lg := st.lower[i*st.groups : (i+1)*st.groups]
	ga := st.groupOf[a]
	aWaits := true // a has not yet taken its place in the order
	bestD = math.Inf(1)
	bestG, bestL := -1, 0.0 // the winner's group and what its bound becomes
	for q := 0; ; q++ {
		g := st.groups // past the last group
		if q < len(open) {
			g = open[q]
		}
		if aWaits && g >= ga {
			aWaits = false
			if g > ga {
				// a's group is not open: of its centroids only a competes.
				// If a wins the group's bound stands; if not, a is the
				// group's nearest centroid.
				if d2a < bestD {
					best, bestD, bestG, bestL = a, d2a, ga, lg[ga]
				}
				lg[ga] = st.upper[i]
			}
		}
		if q == len(open) {
			break
		}
		// m1, m2: smallest and second-smallest squared distance in the
		// group; arg: the lowest-index centroid at m1.
		m1, m2, arg := math.Inf(1), math.Inf(1), a
		for c := st.start[g]; c < st.start[g+1]; c++ {
			dd := d2a
			if c != a {
				dd = dist[used]
				used++
			}
			if dd < m1 {
				m1, m2, arg = dd, m1, c
			} else if dd < m2 {
				m2 = dd
			}
		}
		lg[g] = math.Sqrt(m1)
		if m1 < bestD {
			best, bestD, bestG, bestL = arg, m1, g, math.Sqrt(m2)
		}
	}
	if bestG >= 0 {
		lg[bestG] = bestL
	}
	return best, bestD, used
}

// evalPairs writes out[j] = SqDist(points[pi[j]], centroids[ci[j]]),
// four pairs per kernel pass.
func evalPairs(points, centroids *matrix.Dense, pi, ci []int, out []float64) {
	j := 0
	for ; j+4 <= len(pi); j += 4 {
		out[j], out[j+1], out[j+2], out[j+3] = matrix.SqDist4(
			points.Row(pi[j]), centroids.Row(ci[j]),
			points.Row(pi[j+1]), centroids.Row(ci[j+1]),
			points.Row(pi[j+2]), centroids.Row(ci[j+2]),
			points.Row(pi[j+3]), centroids.Row(ci[j+3]))
	}
	for ; j < len(pi); j++ {
		out[j] = matrix.SqDist(points.Row(pi[j]), centroids.Row(ci[j]))
	}
}

// updateScratch holds the fixed per-block partial counts and sums of
// the centroid update.
type updateScratch struct {
	nb     int
	counts []int     // nb x k
	sums   []float64 // nb x (k*d)
}

func newUpdateScratch(n, k, d int) *updateScratch {
	nb := (n + updateBlockRows - 1) / updateBlockRows
	return &updateScratch{
		nb:     nb,
		counts: make([]int, nb*k),
		sums:   make([]float64, nb*k*d),
	}
}

// accumulate recomputes counts and sums from the current labels: each
// fixed 256-row block's partial is summed in row order, and the
// partials are reduced in block order — on one goroutine or many, every
// sum bit is the same. upd keeps the block partials between calls, so
// only the blocks dirty marks are re-summed; a block whose labels did
// not change since its partial was summed has a bit-identical partial.
func accumulate(points *matrix.Dense, labels []int, counts []int, sums *matrix.Dense, upd *updateScratch, dirty []bool) {
	n := points.Rows()
	k := len(counts)
	d := sums.Cols()
	clear(counts)
	clear(sums.Data())
	nb := upd.nb
	// sumRows cannot fail.
	_ = par.Each(nb, nb, func(b int) error {
		if !dirty[b] {
			return nil
		}
		lo := b * updateBlockRows
		bc, bs := upd.counts[b*k:(b+1)*k], upd.sums[b*k*d:(b+1)*k*d]
		clear(bc)
		clear(bs)
		sumRows(points, labels, lo, min(lo+updateBlockRows, n), bc, bs)
		return nil
	})
	// Deterministic reduction: block partials in block order.
	for b := 0; b < nb; b++ {
		bc := upd.counts[b*k : (b+1)*k]
		bs := upd.sums[b*k*d : (b+1)*k*d]
		for c := 0; c < k; c++ {
			counts[c] += bc[c]
			row := sums.Row(c)
			for j, v := range bs[c*d : (c+1)*d] {
				row[j] += v
			}
		}
	}
}

// sumRows adds rows [lo, hi) of points, in row order, into the k counts
// and the k×d row-major sums of their labels.
func sumRows(points *matrix.Dense, labels []int, lo, hi int, counts []int, sums []float64) {
	d := points.Cols()
	for i := lo; i < hi; i++ {
		c := labels[i]
		counts[c]++
		row := sums[c*d : (c+1)*d]
		for j, v := range points.Row(i) {
			row[j] += v
		}
	}
}

// seedPlusPlus chooses K initial centroids with the k-means++ scheme:
// the first uniformly, each next with probability proportional to the
// squared distance from the nearest already-chosen centroid. Every
// squared distance it evaluates — seed c against points lo, lo+1, … —
// is handed to observe.
func seedPlusPlus(points *matrix.Dense, k int, rng *rand.Rand, observe func(c, lo int, d2 []float64)) *matrix.Dense {
	n, d := points.Rows(), points.Cols()
	centroids := matrix.NewDense(k, d)
	dist2 := make([]float64, n) // per point: squared distance to the nearest chosen centroid
	toNew := make([]float64, min(n, assignBlockRows))
	for c := 0; c < k; c++ {
		var pick int
		if c == 0 {
			pick = rng.Intn(n)
		} else {
			var total float64
			for _, v := range dist2 {
				total += v
			}
			if total <= 0 {
				// All remaining points coincide with chosen centroids.
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
		}
		copy(centroids.Row(c), points.Row(pick))
		// The new centroid against all points, a block of rows at a time.
		for lo := 0; lo < n; lo += len(toNew) {
			hi := min(lo+len(toNew), n)
			out := toNew[:hi-lo]
			matrix.SqDistBlock(centroids.Row(c), points.Data()[lo*d:hi*d], hi-lo, out)
			observe(c, lo, out)
			for j, d2 := range out {
				if c == 0 || d2 < dist2[lo+j] {
					dist2[lo+j] = d2
				}
			}
		}
	}
	return centroids
}

// farthestPoint returns the index of the point with the largest distance
// to its assigned centroid, the lowest such index on ties.
func farthestPoint(points, centroids *matrix.Dense, labels []int) int {
	n := points.Rows()
	worst, worstD := 0, -1.0
	var d2 [4]float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d2[0], d2[1], d2[2], d2[3] = matrix.SqDist4(
			points.Row(i), centroids.Row(labels[i]),
			points.Row(i+1), centroids.Row(labels[i+1]),
			points.Row(i+2), centroids.Row(labels[i+2]),
			points.Row(i+3), centroids.Row(labels[i+3]))
		for j, v := range d2 {
			if v > worstD {
				worst, worstD = i+j, v
			}
		}
	}
	for ; i < n; i++ {
		if v := matrix.SqDist(points.Row(i), centroids.Row(labels[i])); v > worstD {
			worst, worstD = i, v
		}
	}
	return worst
}
