package core

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/spectral"
)

// TestPlanAgreesWithSolve holds the solver to its own plan: whatever
// plan(ni) promises the map side, the wave packing, the flow model and
// label assembly is what solve then does — the cluster count, whether
// the bucket is embedded or short-circuited, and the similarity bytes
// (an upper bound where the engine's sparse attempt succeeds).
func TestPlanAgreesWithSolve(t *testing.T) {
	pts, _ := blobPoints(71, 8, 60, 12, 10, 0.3)
	n := pts.Rows()
	const cutoff = 96 // at the engine's dense-eigen ceiling, so both dense solvers appear
	seen := map[string]int{}
	for _, embed := range []bool{false, true} {
		for _, sparse := range []bool{false, true} {
			for _, k := range []int{1, 16, n} {
				pol := solvePolicy{N: n, Cols: pts.Cols(), K: k, Sigma: 1, Seed: 72}
				if embed {
					pol.EmbedDim, pol.EmbedCutoff = 16, cutoff
				}
				if sparse {
					pol.SparseCutoff, pol.Epsilon = cutoff, 1e-4
				}
				solver, err := newBucketSolver(pol)
				if err != nil {
					t.Fatal(err)
				}
				var scratch []float64
				for _, ni := range []int{1, 2, cutoff - 1, cutoff, 400} {
					rows := make([]int, ni)
					for i := range rows {
						rows[i] = i * n / ni // every blob contributes
					}
					pl := solver.plan(ni)
					sol, err := solver.solve(bucket{points: pts, rows: rows, ids: rows}, &scratch)
					if err != nil {
						t.Fatalf("%+v ni=%d: %v", pol, ni, err)
					}
					seen[sol.Solver]++
					if sol.K != pl.K || len(sol.Labels) != ni {
						t.Errorf("%+v ni=%d: solved K=%d over %d labels, planned %d", pol, ni, sol.K, len(sol.Labels), pl.K)
					}
					if got := sol.Solver == spectral.SolverEmbedded; got != (pl.Class == classEmbedded) {
						t.Errorf("%+v ni=%d: solver %q, plan class %d", pol, ni, sol.Solver, pl.Class)
					}
					if got := sol.Solver == SolverTrivial; got != (pl.Class == classTrivial) {
						t.Errorf("%+v ni=%d: solver %q, plan class %d", pol, ni, sol.Solver, pl.Class)
					}
					if sol.Solver == spectral.SolverSparseLanczos {
						if sol.GramBytes > pl.Bytes {
							t.Errorf("%+v ni=%d: sparse solve held %d bytes, planned bound %d", pol, ni, sol.GramBytes, pl.Bytes)
						}
					} else if sol.GramBytes != pl.Bytes {
						t.Errorf("%+v ni=%d: %s solve held %d bytes, planned %d", pol, ni, sol.Solver, sol.GramBytes, pl.Bytes)
					}
				}
			}
		}
	}
	for _, s := range []string{SolverTrivial, spectral.SolverEmbedded, spectral.SolverSparseLanczos, spectral.SolverDenseEigen, spectral.SolverDenseLanczos} {
		if seen[s] == 0 {
			t.Errorf("the grid never reached the %s solver: %v", s, seen)
		}
	}
}

// TestSolveHoldsWhatItPlans: what a dense solve holds in its scratch is
// the Gram its plan reports, within 8·Ni — the packed triangle,
// 4·Ni² + 4·Ni bytes, on the Lanczos route and on the dense-eigen route
// alike (the latter's n x n for tred2 is the solve's own, not the
// scratch's), and on a sparse-mode bucket whose ε-cut is too full for
// the CSR solver — and the sparse and trivial routes do not grow it. So
// the budgeted waves of a MemoryBudget run, packed by plan Bytes, bound
// real bytes. And on every class a solve handed exactly the plan's
// scratchLen — what lsh.EachBucket maps — solves in that buffer and
// never replaces it.
func TestSolveHoldsWhatItPlans(t *testing.T) {
	pts, _ := blobPoints(71, 8, 60, 12, 10, 0.3)
	n := pts.Rows()
	seen := map[string]int{}
	for _, mode := range []string{"dense", "sparse", "embed"} {
		for _, k := range []int{16, 160} {
			pol := solvePolicy{N: n, Cols: pts.Cols(), K: k, Sigma: 1, Seed: 72}
			switch mode {
			case "sparse":
				pol.SparseCutoff, pol.Epsilon = 96, 1e-4
			case "embed":
				pol.EmbedDim, pol.EmbedCutoff = 16, 96
			}
			solver, err := newBucketSolver(pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, ni := range []int{1, 2, 20, 60, 96, 97, 200, 300} {
				rows := make([]int, ni)
				for i := range rows {
					rows[i] = i * n / ni
				}
				pl := solver.plan(ni)
				var scratch []float64
				sol, err := solver.solve(bucket{points: pts, rows: rows, ids: rows}, &scratch)
				if err != nil {
					t.Fatalf("%+v ni=%d: %v", pol, ni, err)
				}
				seen[sol.Solver]++
				held := 8 * int64(cap(scratch))
				switch {
				case sol.Solver == SolverTrivial || sol.Solver == spectral.SolverSparseLanczos:
					if held != 0 {
						t.Errorf("%+v ni=%d: %s solve grew the scratch to %d bytes", pol, ni, sol.Solver, held)
					}
				default:
					if held > pl.Bytes+8*int64(ni) {
						t.Errorf("%+v ni=%d: %s solve holds %d bytes, planned %d", pol, ni, sol.Solver, held, pl.Bytes)
					}
				}

				sized := make([]float64, pl.scratchLen(ni))
				scratch = sized
				if _, err := solver.solve(bucket{points: pts, rows: rows, ids: rows}, &scratch); err != nil {
					t.Fatalf("%+v ni=%d: %v", pol, ni, err)
				}
				if cap(scratch) != cap(sized) || (cap(sized) > 0 && &scratch[:1][0] != &sized[0]) {
					t.Errorf("%+v ni=%d: %s solve handed its plan's %d floats regrew them to %d", pol, ni, sol.Solver, len(sized), cap(scratch))
				}
			}
		}
	}
	for _, s := range []string{SolverTrivial, spectral.SolverSparseLanczos, spectral.SolverDenseEigen, spectral.SolverDenseLanczos, spectral.SolverLandmark, spectral.SolverEmbedded} {
		if seen[s] == 0 {
			t.Errorf("the sweep never reached the %s solver: %v", s, seen)
		}
	}
}

// TestLandmarkSolveHoldsWhatItPlans: a landmark bucket's scratch holds
// exactly its plan's 8·Ni·m bytes — the cross block, which the embedding
// then overwrites — and a bucket of coincident rows, whose landmark
// block has rank one, fails the landmark solve and ends in the k-means
// fallback with the plan's bytes accounted.
func TestLandmarkSolveHoldsWhatItPlans(t *testing.T) {
	blobs, _ := blobPoints(71, 8, 60, 12, 10, 0.3)
	same := matrix.NewDense(blobs.Rows(), blobs.Cols())
	for i := 0; i < same.Rows(); i++ {
		copy(same.Row(i), blobs.Row(0))
	}
	n := blobs.Rows()
	for _, tc := range []struct {
		name   string
		pts    *matrix.Dense
		solver string
	}{{"blobs", blobs, spectral.SolverLandmark}, {"coincident", same, SolverKMeansFallback}} {
		solver, err := newBucketSolver(solvePolicy{N: n, Cols: blobs.Cols(), K: 4, Sigma: 1, Seed: 72, EmbedDim: 64, EmbedCutoff: 100})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		pl := solver.plan(n)
		if pl.Class != classLandmark || pl.Bytes != 8*int64(n)*32 {
			t.Fatalf("%s: plan %+v, want the landmark class with 32 landmarks", tc.name, pl)
		}
		var scratch []float64
		sol, err := solver.solve(bucket{points: tc.pts, rows: rows, ids: rows}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Solver != tc.solver || len(sol.Labels) != n || sol.GramBytes != pl.Bytes {
			t.Errorf("%s: solver %q over %d labels holding %d bytes; want %q over %d, planned %d",
				tc.name, sol.Solver, len(sol.Labels), sol.GramBytes, tc.solver, n, pl.Bytes)
		}
		if held := 8 * int64(cap(scratch)); held != pl.Bytes {
			t.Errorf("%s: the solve holds %d bytes of scratch, planned %d", tc.name, held, pl.Bytes)
		}
	}
}

// TestSolvePolicyRoundTripBuildsSameMap: a worker builds its solver
// from the policy in the job Conf; its feature map must be the
// driver's, bit for bit, or a bucket embedded in a worker would differ
// from the same bucket embedded in the driver's process.
func TestSolvePolicyRoundTripBuildsSameMap(t *testing.T) {
	pts, _ := blobPoints(71, 8, 60, 12, 10, 0.3)
	p, err := NewPlan(pts, Config{K: 8, Seed: 72, EmbedDim: 32}, true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := gobEncode(solveConf{Policy: p.solver.pol})
	if err != nil {
		t.Fatal(err)
	}
	var conf solveConf
	if err := gobDecode(blob, &conf); err != nil {
		t.Fatal(err)
	}
	if conf.Policy != p.solver.pol {
		t.Fatalf("policy %+v decoded as %+v", p.solver.pol, conf.Policy)
	}
	worker, err := newBucketSolver(conf.Policy)
	if err != nil {
		t.Fatal(err)
	}
	n, dim := pts.Rows(), p.Embedder.Dim()
	want, got := matrix.NewDense(n, dim), matrix.NewDense(n, dim)
	if err := p.Embedder.TransformInto(want.Data(), pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := worker.emb.TransformInto(got.Data(), pts, nil); err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
			t.Fatalf("embedded coordinate %d: worker %v, driver %v", i, got.Data()[i], w)
		}
	}
}
