package core

import (
	"context"
	"fmt"

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

// ClusterIncremental is Cluster processing buckets in sequential waves
// so that the resident approximated-Gram storage never exceeds
// budgetBytes — the paper's §5.1 claim that "the data partitions (or
// splits) are incrementally processed, split by split, based on the
// number of available mappers", which is how DASC handles datasets
// whose bucketed Gram still exceeds one machine's memory.
//
// A single bucket larger than the budget is processed alone (its
// sub-Gram is irreducible); the reported peak then exceeds the budget
// and callers can react by increasing M. Buckets the embed policy claims
// are packed at their embedded footprint (8·Ni·d′ rows, no Gram).
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
	r := &localRunner{budget: budgetBytes}
	res, err := RunPipeline(ctx, points, cfg, r)
	if err != nil {
		return nil, err
	}
	return &IncrementalResult{Result: *res, PeakGramBytes: r.peak, Waves: r.waves}, nil
}
