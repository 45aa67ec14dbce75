package lsh

// Multi-table, multi-probe LSH ensemble. A single M-bit signature
// family has the accuracy cliff the paper shows in Figures 2/3: one
// unlucky threshold cut splits a true cluster across buckets forever.
// The ensemble attacks that weakness with the two standard LSH recall
// levers:
//
//   - L independent tables: every point is hashed under L
//     independently drawn families; buckets that share a point in ANY
//     table are merged, so a cluster fragmented by one table's cut is
//     repaired by the others (go-lsh's NumTables knob).
//   - multi-probe: within each table, every point also probes the
//     buckets of near-miss signatures — bit flips ordered by increasing
//     decision margin (least-confident bits first, per MarginFamily),
//     or the plain Hamming ball for families without margins — and is
//     merged with the buckets its probes hit.
//
// Merging runs as a union-find over the first table's keeper buckets
// (the base units; they are never split), with MaxMergedBucket as the
// cost dial: a union that would grow a merged bucket past the cap is
// skipped, bounding the Ni^2 solve cost the recall levers can create.
// All merge passes iterate in fixed slice order, so the partition is
// byte-deterministic for a fixed seed at any worker count. The
// degenerate configuration — one table, probing off — routes through
// PartitionSignatures unchanged and reproduces the paper's single-
// signature partition bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/matrix"
	"repro/internal/par"
)

// MaxTables bounds the ensemble width; beyond it the partition cost is
// dominated by table bookkeeping rather than recall gains.
const MaxTables = 64

// ensembleSeedStride separates the per-table seeds; any odd constant
// works, a large prime keeps derived rand streams visibly unrelated.
const ensembleSeedStride = 0x5DEECE66D

const (
	// maxFlipBits caps how many low-margin candidate bits the probe
	// generator considers; subsets are enumerated over these only.
	maxFlipBits = 16
	// maxEnumeratedProbes caps the subsets generated before the
	// margin-score sort, bounding the cost of large ProbeRadius values.
	maxEnumeratedProbes = 1024
	// probesPerBit·Bits() caps the probes generated per point per
	// table, where Bits() is table 0's signature width.
	probesPerBit = 4
)

// EnsembleConfig is the recall/cost dial of the bucketing front-end.
type EnsembleConfig struct {
	// Tables is the number of independent hash tables L. 0 and 1 both
	// mean the paper's single-table behaviour.
	Tables int
	// ProbeRadius is the maximum number of signature bits a probe may
	// flip. 0 disables probing.
	ProbeRadius int
	// MaxMergedBucket caps the size a bucket may reach through
	// cross-table or probe unions; 0 means unlimited. Buckets already
	// larger than the cap before merging are left intact.
	MaxMergedBucket int
}

// resolve validates the dial against a family of the given width and
// fills defaults.
func (c EnsembleConfig) resolve(bits int) (EnsembleConfig, error) {
	if c.Tables == 0 {
		c.Tables = 1
	}
	if c.Tables < 1 || c.Tables > MaxTables {
		return c, fmt.Errorf("lsh: Tables=%d out of range [1,%d]", c.Tables, MaxTables)
	}
	if c.ProbeRadius < 0 || c.ProbeRadius > bits {
		return c, fmt.Errorf("lsh: ProbeRadius=%d out of range [0,%d]", c.ProbeRadius, bits)
	}
	if c.MaxMergedBucket < 0 {
		return c, fmt.Errorf("lsh: MaxMergedBucket=%d negative", c.MaxMergedBucket)
	}
	return c, nil
}

// SignatureSet holds the per-table signatures of a dataset:
// Tables[t][i] is point i's signature under table t.
type SignatureSet struct {
	Tables [][]uint64
}

// NewSignatureSet allocates a zeroed signature set for n points across
// the given number of tables — the shape distributed runners fill from
// reassembled wire records.
func NewSignatureSet(tables, n int) *SignatureSet {
	s := &SignatureSet{Tables: make([][]uint64, tables)}
	for t := range s.Tables {
		s.Tables[t] = make([]uint64, n)
	}
	return s
}

// NumTables returns the table count L.
func (s *SignatureSet) NumTables() int { return len(s.Tables) }

// Len returns the number of points.
func (s *SignatureSet) Len() int {
	if len(s.Tables) == 0 {
		return 0
	}
	return len(s.Tables[0])
}

// Table returns table t's per-point signatures.
func (s *SignatureSet) Table(t int) []uint64 { return s.Tables[t] }

// Ensemble is a fitted multi-table hash front-end. It implements
// Family through its first table, so any single-signature call site
// (prediction routing, diagnostics) keeps working; partition-building
// call sites get the full multi-table merge via PartitionWith or
// Partition.
type Ensemble struct {
	families []Family
	cfg      EnsembleConfig
}

var _ Family = (*Ensemble)(nil)

// FitEnsemble fits cfg.Tables independent span/threshold hashers from
// the dataset. Table 0 uses cfg verbatim — its signatures, and
// therefore the degenerate single-table partition, are identical to
// Fit's. Additional tables draw from table-derived seeds; when the
// configured policy is the deterministic TopSpan (which would fit L
// identical tables), they fall back to SpanWeighted sampling, the
// paper's Eq. 4 randomized policy. The rows are transposed and their
// spans computed once for all tables.
func FitEnsemble(points *matrix.Dense, cfg Config, ecfg EnsembleConfig) (*Ensemble, error) {
	fit, err := newSpanFit(points, cfg)
	if err != nil {
		return nil, err
	}
	defer fit.free()
	base, err := fit.hasher(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ecfg, err = ecfg.resolve(base.Bits())
	if err != nil {
		return nil, err
	}
	families := make([]Family, ecfg.Tables)
	families[0] = base
	policy := cfg.Policy
	if policy == TopSpan {
		policy = SpanWeighted
	}
	for t := 1; t < ecfg.Tables; t++ {
		h, err := fit.hasher(policy, cfg.Seed+int64(t)*ensembleSeedStride)
		if err != nil {
			return nil, fmt.Errorf("lsh: table %d: %w", t, err)
		}
		families[t] = h
	}
	return &Ensemble{families: families, cfg: ecfg}, nil
}

// NewEnsemble builds an ensemble from explicit per-table families
// (table 0 first). The families may be heterogeneous; each table
// probes within its own signature space.
func NewEnsemble(families []Family, ecfg EnsembleConfig) (*Ensemble, error) {
	if len(families) == 0 {
		return nil, errors.New("lsh: ensemble needs at least one family")
	}
	for t, f := range families {
		if f == nil {
			return nil, fmt.Errorf("lsh: ensemble table %d is nil", t)
		}
	}
	ecfg.Tables = len(families)
	ecfg, err := ecfg.resolve(families[0].Bits())
	if err != nil {
		return nil, err
	}
	return &Ensemble{families: append([]Family(nil), families...), cfg: ecfg}, nil
}

// EnsembleFrom grows an ensemble out of one family: table 0 is the
// family itself, tables 1..L-1 come from Refit with table-derived
// seeds. Tables > 1 therefore requires a Refittable family (MinHash);
// data-fitted hashers go through FitEnsemble instead.
func EnsembleFrom(f Family, ecfg EnsembleConfig) (*Ensemble, error) {
	if e, ok := f.(*Ensemble); ok {
		return e, nil
	}
	ecfg, err := ecfg.resolve(f.Bits())
	if err != nil {
		return nil, err
	}
	families := make([]Family, ecfg.Tables)
	families[0] = f
	if ecfg.Tables > 1 {
		rf, ok := f.(Refittable)
		if !ok {
			return nil, fmt.Errorf("lsh: Tables=%d needs a Refittable family, %T is not", ecfg.Tables, f)
		}
		for t := 1; t < ecfg.Tables; t++ {
			sib, err := rf.Refit(t)
			if err != nil {
				return nil, fmt.Errorf("lsh: table %d: %w", t, err)
			}
			families[t] = sib
		}
	}
	return &Ensemble{families: families, cfg: ecfg}, nil
}

// Tables returns the table count L.
func (e *Ensemble) Tables() int { return len(e.families) }

// Families returns the per-table families (table 0 first). The slice
// is a copy; the families are shared.
func (e *Ensemble) Families() []Family { return append([]Family(nil), e.families...) }

// Config returns the resolved recall/cost dial.
func (e *Ensemble) Config() EnsembleConfig { return e.cfg }

// Bits implements Family through table 0.
func (e *Ensemble) Bits() int { return e.families[0].Bits() }

// Signature implements Family through table 0, so single-signature
// call sites (bucket routing, diagnostics) see the base table.
func (e *Ensemble) Signature(x []float64) uint64 { return e.families[0].Signature(x) }

const (
	// hashBlockRows is the fixed row-block edge of the parallel hash
	// pass; signatures are pure per-row functions, so any block
	// decomposition yields identical output.
	hashBlockRows = 512
	// hashParallelCutoff is the row count below which goroutine handoff
	// costs more than the hashing.
	hashParallelCutoff = 2048
)

// Hash computes the per-table signatures of every row.
func (e *Ensemble) Hash(points PointSource) *SignatureSet {
	s, _ := e.HashContext(context.Background(), points)
	return s
}

// HashContext is Hash with cancellation, checked once per row block;
// large inputs hash in parallel over fixed row blocks, identically at
// every GOMAXPROCS.
func (e *Ensemble) HashContext(ctx context.Context, points PointSource) (*SignatureSet, error) {
	n := points.Rows()
	set := &SignatureSet{Tables: make([][]uint64, len(e.families))}
	for t := range set.Tables {
		set.Tables[t] = make([]uint64, n)
	}
	hashRow := func(i int) {
		row := points.Row(i)
		for t, f := range e.families {
			set.Tables[t][i] = f.Signature(row)
		}
	}
	nb := (n + hashBlockRows - 1) / hashBlockRows
	limit := nb
	if n < hashParallelCutoff {
		limit = 1
	}
	err := par.Each(nb, limit, func(b int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := b * hashBlockRows
		for i := lo; i < min(lo+hashBlockRows, n); i++ {
			hashRow(i)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lsh: hash: %w", err)
	}
	return set, nil
}

// Partition builds the merged bucket partition from precomputed
// per-table signatures. maxHamming is the paper's Eq. 6 keeper-merge
// radius applied within every table; the cross-table and probe merges
// then union the first table's keeper buckets. points supplies rows
// for margin-ordered probing and may be nil, in which case probes use
// the Hamming-ball order even for margin families.
func (e *Ensemble) Partition(points PointSource, sigs *SignatureSet, maxHamming int) (*Partition, error) {
	L := len(e.families)
	if sigs == nil || len(sigs.Tables) != L {
		return nil, fmt.Errorf("lsh: signature set has %d tables, ensemble %d", sigs.NumTables(), L)
	}
	n := len(sigs.Tables[0])
	for t, ts := range sigs.Tables {
		if len(ts) != n {
			return nil, fmt.Errorf("lsh: table %d has %d signatures, table 0 has %d", t, len(ts), n)
		}
	}
	if points != nil && points.Rows() != n {
		return nil, fmt.Errorf("lsh: %d points for %d signatures", points.Rows(), n)
	}

	// Degenerate dial: the ensemble IS the paper's partition.
	if L == 1 && e.cfg.ProbeRadius == 0 {
		return PartitionSignatures(sigs.Tables[0], maxHamming), nil
	}

	// Per-table keeper partitions (Eq. 6 merge within each table).
	parts := make([]*Partition, L)
	for t := range parts {
		parts[t] = PartitionSignatures(sigs.Tables[t], maxHamming)
	}
	base := parts[0]
	bucketOf := make([]int, n) // base-bucket id of every point
	uf := newUnionFind(len(base.Buckets), e.cfg.MaxMergedBucket)
	for bi, b := range base.Buckets {
		uf.size[bi] = len(b.Indices)
		for _, idx := range b.Indices {
			bucketOf[idx] = bi
		}
	}

	// Cross-table co-membership: points sharing a bucket in any table
	// pull their base buckets together. Fixed iteration order (tables
	// ascending, buckets in partition order, indices ascending) makes
	// cap-limited merging deterministic.
	for t := 1; t < L; t++ {
		for _, b := range parts[t].Buckets {
			anchor := bucketOf[b.Indices[0]]
			for _, idx := range b.Indices[1:] {
				uf.union(anchor, bucketOf[idx])
			}
		}
	}

	// Multi-probe: every point probes near-miss signatures in every
	// table and unions with the buckets they hit.
	if e.cfg.ProbeRadius > 0 {
		maxProbes := probesPerBit * e.Bits()
		var marginBuf [MaxBits]float64
		probeBuf := make([]uint64, 0, maxProbes)
		scratch := newProbeScratch()
		for t := 0; t < L; t++ {
			fam := e.families[t]
			mf, hasMargins := fam.(MarginFamily)
			// Exact signature -> base-bucket anchor of its keeper bucket
			// in this table; built in partition order so it is
			// insertion-deterministic (lookup only, never ranged).
			sigAnchor := make(map[uint64]int, n)
			for _, b := range parts[t].Buckets {
				anchor := bucketOf[b.Indices[0]]
				for _, idx := range b.Indices {
					s := sigs.Tables[t][idx]
					if _, ok := sigAnchor[s]; !ok {
						sigAnchor[s] = anchor
					}
				}
			}
			bitsT := fam.Bits()
			for i := 0; i < n; i++ {
				var margins []float64
				if hasMargins && points != nil {
					margins = marginBuf[:bitsT]
					mf.SignatureMargins(points.Row(i), margins)
				}
				probes := probeSequence(sigs.Tables[t][i], bitsT, margins,
					e.cfg.ProbeRadius, maxProbes, probeBuf[:0], scratch)
				for _, ps := range probes {
					if a, ok := sigAnchor[ps]; ok {
						uf.union(bucketOf[i], a)
					}
				}
			}
		}
	}

	return assembleComponents(base, bucketOf, uf, sigs.Tables[0]), nil
}

// assembleComponents turns the union-find over base buckets into the
// final partition: each component's indices are the sorted union of
// its base buckets' indices, its signature is that of the largest
// constituent base bucket (ties to the smaller signature), and buckets
// sort by signature — the same deterministic order contract as
// PartitionSignatures.
func assembleComponents(base *Partition, bucketOf []int, uf *unionFind, sigs0 []uint64) *Partition {
	compOf := make([]int, len(base.Buckets)) // base bucket -> component slot
	for i := range compOf {
		compOf[i] = -1
	}
	type comp struct {
		repSig  uint64
		repSize int
		indices []int
	}
	var comps []comp
	for bi, b := range base.Buckets {
		root := uf.find(bi)
		slot := compOf[root]
		if slot == -1 {
			slot = len(comps)
			compOf[root] = slot
			comps = append(comps, comp{repSig: b.Signature, repSize: len(b.Indices)})
		}
		c := &comps[slot]
		c.indices = append(c.indices, b.Indices...)
		if len(b.Indices) > c.repSize ||
			(len(b.Indices) == c.repSize && b.Signature < c.repSig) {
			c.repSig, c.repSize = b.Signature, len(b.Indices)
		}
	}
	buckets := make([]Bucket, len(comps))
	for i := range comps {
		sort.Ints(comps[i].indices)
		buckets[i] = Bucket{Signature: comps[i].repSig, Indices: comps[i].indices}
	}
	sort.Slice(buckets, func(a, b int) bool { return buckets[a].Signature < buckets[b].Signature })
	return &Partition{Buckets: buckets, Signatures: sigs0}
}

// ---- probe-sequence generation ----

// probeScratch reuses the candidate and subset buffers across points.
type probeScratch struct {
	cand   []int
	subset []probeEntry
	stack  []int
}

type probeEntry struct {
	sig   uint64
	score float64
	flips int
}

func newProbeScratch() *probeScratch {
	return &probeScratch{
		cand:   make([]int, 0, maxFlipBits),
		subset: make([]probeEntry, 0, maxEnumeratedProbes),
		stack:  make([]int, 0, maxFlipBits),
	}
}

// probeSequence returns up to maxProbes signatures obtained by flipping
// 1..radius bits of sig, ordered by increasing total margin of the
// flipped bits — least-confident flips first. margins may be nil, in
// which case every bit has unit margin and the order degenerates to
// the Hamming ball (radius-1 probes before radius-2, ties by flip
// pattern). Candidates are the maxFlipBits lowest-margin bits and the
// enumeration is capped, so the cost stays bounded for any radius.
func probeSequence(sig uint64, bitCount int, margins []float64, radius, maxProbes int, dst []uint64, sc *probeScratch) []uint64 {
	if radius > bitCount {
		radius = bitCount
	}
	if radius <= 0 || maxProbes <= 0 {
		return dst
	}
	// Candidate bits sorted by ascending margin, ties by bit index.
	cand := sc.cand[:0]
	for b := 0; b < bitCount; b++ {
		cand = append(cand, b)
	}
	if margins != nil {
		sort.SliceStable(cand, func(a, b int) bool { return margins[cand[a]] < margins[cand[b]] })
	}
	if len(cand) > maxFlipBits {
		cand = cand[:maxFlipBits]
	}
	if radius > len(cand) {
		radius = len(cand)
	}

	// Enumerate flip subsets of size 1..radius over the candidates,
	// smaller sizes first; the per-size lexicographic order over
	// margin-sorted candidates means truncation at the enumeration cap
	// keeps the lowest-margin combinations.
	entries := sc.subset[:0]
	marginOf := func(b int) float64 {
		if margins == nil {
			return 1
		}
		return margins[b]
	}
	for size := 1; size <= radius && len(entries) < maxEnumeratedProbes; size++ {
		stack := sc.stack[:0]
		var rec func(start int, mask uint64, score float64)
		rec = func(start int, mask uint64, score float64) {
			if len(entries) >= maxEnumeratedProbes {
				return
			}
			if len(stack) == size {
				entries = append(entries, probeEntry{sig: sig ^ mask, score: score, flips: size})
				return
			}
			for c := start; c < len(cand); c++ {
				stack = append(stack, cand[c])
				rec(c+1, mask|1<<uint(cand[c]), score+marginOf(cand[c]))
				stack = stack[:len(stack)-1]
			}
		}
		rec(0, 0, 0)
	}
	// Least total margin first; ties broken by fewer flips, then by
	// signature value, so the order is total and deterministic.
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].score < entries[b].score {
			return true
		}
		if entries[a].score > entries[b].score {
			return false
		}
		if entries[a].flips != entries[b].flips {
			return entries[a].flips < entries[b].flips
		}
		return entries[a].sig < entries[b].sig
	})
	if len(entries) > maxProbes {
		entries = entries[:maxProbes]
	}
	for _, e := range entries {
		dst = append(dst, e.sig)
	}
	sc.subset = entries[:0]
	return dst
}

// ---- deterministic size-capped union-find ----

// unionFind is a union-by-size forest over base-bucket ids with an
// optional merged-size cap. Roots are deterministic: the larger
// component wins, ties go to the smaller id.
type unionFind struct {
	parent []int
	size   []int
	limit  int
}

func newUnionFind(n, limit int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n), limit: limit}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// union merges the components of a and b unless the result would
// exceed the cap; it reports whether a and b share a component after
// the call.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return true
	}
	if u.limit > 0 && u.size[ra]+u.size[rb] > u.limit {
		return false
	}
	if u.size[rb] > u.size[ra] || (u.size[rb] == u.size[ra] && rb < ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}
