package core

import (
	"context"
	"fmt"

	"repro/internal/embed"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

// IncrementalResult extends Result with the bounded-memory accounting
// of the streaming driver.
type IncrementalResult struct {
	Result
	// PeakGramBytes is the largest sub-Gram storage resident at any
	// point during the run — the quantity the budget bounds.
	PeakGramBytes int64
	// Waves is the number of sequential batches the buckets were
	// processed in.
	Waves int
}

// ClusterIncremental runs DASC processing buckets in sequential waves
// so that the resident approximated-Gram storage never exceeds
// budgetBytes — the paper's §5.1 claim that "the data partitions (or
// splits) are incrementally processed, split by split, based on the
// number of available mappers", which is how DASC handles datasets
// whose bucketed Gram still exceeds one machine's memory.
//
// A single bucket larger than the budget is processed alone (its
// sub-Gram is irreducible); the reported peak then exceeds the budget
// and callers can react by increasing M.
func ClusterIncremental(points *matrix.Dense, cfg Config, budgetBytes int64) (*IncrementalResult, error) {
	return ClusterIncrementalContext(context.Background(), points, cfg, budgetBytes)
}

// ClusterIncrementalContext is ClusterIncremental with cancellation:
// the context is checked between pipeline stages and between buckets,
// so a cancel returns within one bucket solve.
func ClusterIncrementalContext(ctx context.Context, points *matrix.Dense, cfg Config, budgetBytes int64) (*IncrementalResult, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("core: memory budget %d must be positive", budgetBytes)
	}
	r := &incrementalRunner{budget: budgetBytes}
	res, err := RunPipeline(ctx, points, cfg, r)
	if err != nil {
		return nil, err
	}
	return &IncrementalResult{Result: *res, PeakGramBytes: r.peak, Waves: r.waves}, nil
}

// incrementalRunner is the bounded-memory backend: buckets are packed
// into waves whose summed sub-Gram storage fits the budget and solved
// one wave at a time. Label assembly still happens in
// canonical partition order (the shared assembly path), so the labeling
// matches the batch driver regardless of wave packing.
type incrementalRunner struct {
	budget int64
	// peak and waves are written by Solve and read by the driver after
	// the pipeline returns.
	peak  int64
	waves int
}

func (*incrementalRunner) Name() string      { return "incremental" }
func (*incrementalRunner) NeedsHasher() bool { return false }

func (*incrementalRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	return hashSignatures(ctx, p)
}

func (r *incrementalRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	n := p.Points.Rows()
	// Waves are packed against the dense worst case; a sparse solve only
	// shrinks what is actually resident, so the budget still holds.
	// Buckets the embed policy will claim are packed at their embedded
	// footprint (8·Ni·d′ rows, no Gram), matching the engine's reported
	// GramBytes so PeakGramBytes stays an upper bound on residency.
	gramOf := func(bi int) int64 {
		ni := len(part.Buckets[bi].Indices)
		if p.Embedder != nil && willEmbed(p.Cfg, ni, n) {
			return embed.Bytes(ni, p.Embedder.Dim())
		}
		return 4 * int64(ni) * int64(ni)
	}

	// Pack buckets into waves first-fit-decreasing under the budget.
	var waves [][]int
	waveLoad := []int64{}
	for _, bi := range part.LPTOrder() {
		need := gramOf(bi)
		placed := false
		for w := range waves {
			if waveLoad[w]+need <= r.budget {
				waves[w] = append(waves[w], bi)
				waveLoad[w] += need
				placed = true
				break
			}
		}
		if !placed {
			waves = append(waves, []int{bi})
			waveLoad = append(waveLoad, need)
		}
	}
	r.waves = len(waves)

	// The planned per-bucket cluster counts double as a consistency
	// check: a bucket must produce exactly its proportional share.
	kOf := make([]int, len(part.Buckets))
	for bi, b := range part.Buckets {
		kOf[bi] = BucketK(p.Cfg.K, len(b.Indices), n)
	}

	// One pool per wave: the buckets of a wave are solved together, each
	// goroutine's sub-Gram buffer dies with the wave, and a wave's load
	// bounds what its buffers can hold at once.
	sols := make([]BucketSolution, len(part.Buckets))
	for w, wave := range waves {
		if waveLoad[w] > r.peak {
			r.peak = waveLoad[w]
		}
		if err := solveBuckets(ctx, p, part, wave, sols); err != nil {
			return nil, err
		}
		for _, bi := range wave {
			if sols[bi].K != kOf[bi] {
				return nil, fmt.Errorf("core: bucket %x produced %d clusters, planned %d",
					part.Buckets[bi].Signature, sols[bi].K, kOf[bi])
			}
		}
	}
	return sols, nil
}
