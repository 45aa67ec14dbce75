package experiments

import (
	"context"
	"repro/internal/core"
	"repro/internal/emr"
	"repro/internal/lsh"
	"repro/internal/metrics"
)

// Table3 regenerates Table 3: DASC on the (simulated) Amazon cloud with
// 16, 32 and 64 nodes. Accuracy comes from a real DASC run on the
// corpus at a single-machine size. The cluster execution is then
// simulated at the paper's dataset scale by resampling the measured
// bucket-size distribution up to N_paper (the paper's multi-million-
// document runs produce thousands of bucket tasks — far more than the
// cluster has slots — which is exactly what makes its scaling linear),
// with task costs from the §4.1 model. The headline shape — time
// halves as nodes double, accuracy and memory flat — is the target.
func Table3(scale Scale) (*Table, error) {
	n, nPaper := 1024, 1<<16
	m := 8 // bucket-rich operating point; see Figure 5's M sweep
	if scale == Full {
		n, nPaper = 8192, 1<<20
		m = 10
	}
	l, k, err := corpusAt(n, int64(n))
	if err != nil {
		return nil, err
	}
	// Accuracy comes from the production configuration (paper-default
	// M); the bucket-size distribution for the cluster simulation comes
	// from a bucket-rich partition (larger M), since at the paper's N
	// the default M itself is that much larger.
	prod, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: k, Seed: 1})
	if err != nil {
		return nil, err
	}
	acc, err := metrics.Accuracy(l.Labels, prod.Labels)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{K: k, Seed: 1, M: m}
	run, err := core.Run(context.Background(), core.Source{Points: l.Points}, cfg)
	if err != nil {
		return nil, err
	}

	// Scale bridge: resample the empirical bucket-size distribution to
	// the paper's document count and bucket count.
	part := resamplePartition(run, n, nPaper)
	flow := core.BuildFlow(part, core.Config{}, nPaper, l.Points.Cols(), 0) // K from the category law at nPaper

	t := &Table{
		ID:      "Table 3",
		Caption: "DASC on the simulated Amazon cloud with different node counts",
		Headers: []string{"metric", "64 nodes", "32 nodes", "16 nodes"},
	}
	var times, mems []string
	for _, nodes := range []int{64, 32, 16} {
		c, err := emr.NewCluster(nodes)
		if err != nil {
			return nil, err
		}
		rep, err := c.RunJobFlow(flow)
		if err != nil {
			return nil, err
		}
		times = append(times, f("%.4gs", rep.TotalTime))
		// The paper's memory metric is Gram-matrix storage, which lives
		// in the spectral-clustering step.
		mems = append(mems, f("%.0f KB", float64(rep.Steps[1].Schedule.TotalMemory)/1024))
	}
	accCell := f("%.1f%%", acc*100)
	t.Rows = append(t.Rows, []string{"Accuracy", accCell, accCell, accCell})
	t.Rows = append(t.Rows, []string{"Memory", mems[0], mems[1], mems[2]})
	t.Rows = append(t.Rows, []string{"Time", times[0], times[1], times[2]})
	t.Notes = append(t.Notes,
		f("accuracy from a real DASC run at N=%d (%d buckets); cluster times simulated at N=%d with %d bucket tasks resampled from the measured size distribution, beta=50us",
			n, len(run.Buckets), nPaper, part.NumBuckets()),
		"paper: 95.6-96.6%% accuracy, ~29 MB, 20.3/40.75/78.85 h — same flat accuracy/memory, ~halving time")
	return t, nil
}

// resamplePartition builds a synthetic partition of nPaper points whose
// bucket-size distribution follows the run measured at n. The bucket
// count targets a mean bucket of ~64 documents: the paper's own Table 3
// memory (~29 MB of Gram storage for 3.5M documents) implies mean
// buckets of only a couple of documents, i.e. a bucket count orders of
// magnitude above 2^M — so a fine-grained partition is the faithful
// model of the run the paper actually timed. Sizes are drawn by
// cycling through the measured size fractions, rescaled to sum to
// nPaper.
func resamplePartition(run *core.Result, n, nPaper int) *lsh.Partition {
	bTarget := nPaper / 64
	if bTarget < 128 {
		bTarget = 128
	}
	fractions := make([]float64, len(run.Buckets))
	for i, b := range run.Buckets {
		fractions[i] = float64(b.Size) / float64(n)
	}
	sizes := make([]int, bTarget)
	var total float64
	raw := make([]float64, bTarget)
	for i := range raw {
		raw[i] = fractions[i%len(fractions)]
		total += raw[i]
	}
	assigned := 0
	for i := range sizes {
		sizes[i] = int(raw[i] / total * float64(nPaper))
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Put any rounding remainder in the first bucket.
	if assigned < nPaper {
		sizes[0] += nPaper - assigned
	}
	// Cap bucket sizes at 2x the mean: the paper's §6 scaling argument
	// is that larger datasets use more signature bits, which split the
	// dominant buckets — model that by splitting any oversized bucket.
	cap := 2 * nPaper / bTarget
	var final []int
	for _, s := range sizes {
		for s > cap {
			final = append(final, cap)
			s -= cap
		}
		final = append(final, s)
	}
	p := &lsh.Partition{}
	idx := 0
	for bi, s := range final {
		indices := make([]int, s)
		for i := range indices {
			indices[i] = idx
			idx++
		}
		p.Buckets = append(p.Buckets, lsh.Bucket{Signature: uint64(bi), Indices: indices})
	}
	return p
}
