// Package dasc is the public API of the DASC library — Distributed
// Approximate Spectral Clustering (Gao, Abd-Almageed, Hefeeda, HPDC'12)
// reimplemented in pure Go.
//
// The package re-exports the stable surface of the internal subsystem
// packages: the DASC clusterer behind its one entry point, Run, the three
// baselines the paper compares against, dataset generators, the
// evaluation metrics, and the MapReduce/EMR runtimes. See README.md for a tour and
// DESIGN.md for the architecture.
//
// Minimal use:
//
//	data, _ := dasc.Mixture(dasc.MixtureConfig{N: 2000, D: 16, K: 5})
//	res, _ := dasc.Run(context.Background(), dasc.Source{Points: data.Points}, dasc.Config{K: 5})
//	acc, _ := dasc.Accuracy(data.Labels, res.Labels)
package dasc

import (
	"context"
	"errors"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/emr"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spectral"
)

// ---- core types ----

// Matrix is a dense row-major matrix of float64 values.
type Matrix = matrix.Dense

// NewMatrix allocates a rows x cols zero matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.NewDense(rows, cols) }

// FromRows builds a matrix by copying the given rows.
func FromRows(rows [][]float64) (*Matrix, error) { return matrix.FromRows(rows) }

// Config controls a DASC run; zero values select the paper's defaults
// (K from the category law, M = ceil(log2 N / 2) - 1, P = M-1 merging,
// median-heuristic kernel bandwidth).
type Config = core.Config

// Result reports a DASC run: labels, bucket structure, Gram memory.
type Result = core.Result

// Source names where a run's rows come from: exactly one of a resident
// matrix (Points) or a shard directory (Dir, see WriteShards).
type Source = core.Source

// Run runs DASC on src. A nil cfg.Executor solves a Points source on
// the in-process bucket pool, in waves within cfg.MemoryBudget; an
// Executor (LocalExecutor, or a TCP Master whose workers may live in
// other OS processes) runs the paper's two MapReduce stages, which a Dir
// source always takes. The run aborts once ctx is done.
func Run(ctx context.Context, src Source, cfg Config) (*Result, error) {
	return core.Run(ctx, src, cfg)
}

// TuneM sweeps the signature width and returns the largest M whose
// approximated Gram matrix keeps at least minFnormRatio of the full
// matrix's Frobenius norm (the paper's §5.5 accuracy/parallelism knob,
// measured as in its Figure 5) on the partition Run builds at that M. A set cfg.Family is an error: its width is fixed.
func TuneM(points *Matrix, cfg Config, minFnormRatio float64) (int, error) {
	m, _, err := core.TuneM(points, cfg, minFnormRatio, 0)
	return m, err
}

// ---- baselines (§5.4) ----

// BaselineConfig is shared by the SC, PSC and NYST baselines.
type BaselineConfig = baseline.Config

// BaselineResult reports a baseline run.
type BaselineResult = baseline.Result

// SC is plain spectral clustering on the full Gram matrix.
func SC(points *Matrix, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.SC(points, cfg)
}

// PSC is parallel spectral clustering on a t-nearest-neighbour sparse
// similarity graph (Chen et al.).
func PSC(points *Matrix, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.PSC(points, cfg)
}

// NYST is spectral clustering with the Nystrom extension (Shi et al.).
func NYST(points *Matrix, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.NYST(points, cfg)
}

// KM is plain K-means on the raw vectors — the Gram-free baseline.
func KM(points *Matrix, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.KM(points, cfg)
}

// SpectralCluster runs plain Ng–Jordan–Weiss spectral clustering on a
// precomputed symmetric similarity matrix, of which only the upper
// triangle is read.
func SpectralCluster(similarity *Matrix, k int, seed int64) ([]int, error) {
	res, err := spectral.Cluster(similarity, spectral.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// ---- kernels ----

// Kernel is a positive-semidefinite similarity function. A plain
// closure of type kernel.Func satisfies it; a kernel built with Gaussian
// is additionally recognized by the blocked Gram engine and computed
// several times faster.
type Kernel = kernel.Kernel

// KernelFunc adapts a plain similarity closure into a Kernel. Closure
// kernels always take the engine's generic per-pair path.
func KernelFunc(f func(x, y []float64) float64) Kernel { return kernel.Func(f) }

// Gaussian returns the RBF kernel of Eq. 1, in the recognized form the
// blocked Gram engine computes on its fast path.
func Gaussian(sigma float64) Kernel { return kernel.NewGaussian(sigma) }

// Gram computes the full zero-diagonal similarity matrix.
func Gram(points *Matrix, k Kernel) *Matrix { return kernel.Gram(points, k) }

// ---- kernel embeddings ----

// Embedder is the deterministic random Fourier feature map for the
// Gaussian kernel: TransformInto fills d′-dimensional embedded rows whose
// dot products approximate the kernel, so eigensolves become dot
// products (the embed-and-conquer solve path). Inside a DASC run,
// Config.EmbedDim and Config.EmbedCutoff enable it for the big buckets
// with many clusters (4·Ki > EmbedDim); the others take the landmark
// solve, whose width the same EmbedDim bounds. NewRFFEmbedder serves
// callers who want the features themselves.
type Embedder = embed.RFF

// NewRFFEmbedder fits a seed-derived random Fourier feature map for the
// Gaussian kernel of bandwidth sigma. dim must be even — the features
// come in cos/sin pairs.
func NewRFFEmbedder(inputDim, dim int, sigma float64, seed int64) (*Embedder, error) {
	return embed.NewRFF(inputDim, dim, sigma, seed)
}

// ---- LSH ----

// LSHFamily is a locality-sensitive hashing scheme; see the lsh
// subpackage for SimHash, MinHash and spectral hashing.
type LSHFamily = lsh.Family

// FitLSH builds the paper's span/threshold hasher for the dataset.
func FitLSH(points *Matrix, m int, seed int64) (LSHFamily, error) {
	return lsh.Fit(points, lsh.Config{M: m, Seed: seed})
}

// MinHashLSH draws an m-bit min-wise hashing family over each vector's
// nonzero support — the natural family for sparse shingled or tf-idf
// text vectors, where set overlap (Jaccard) is the right similarity.
// Pass it as Config.Family; because MinHash is seed-refittable, setting
// Config.Tables > 1 grows independent ensemble tables from it, and
// Config.ProbeRadius adds Hamming-ball probing (see examples/shingles).
func MinHashLSH(m int, seed int64) (LSHFamily, error) {
	return lsh.FitMinHash(m, seed)
}

// ---- datasets ----

// Labeled couples points with ground-truth labels.
type Labeled = dataset.Labeled

// MixtureConfig controls the synthetic Gaussian-mixture generator.
type MixtureConfig = dataset.MixtureConfig

// Mixture draws a synthetic mixture in [0,1]^D (§5.2).
func Mixture(cfg MixtureConfig) (*Labeled, error) { return dataset.Mixture(cfg) }

// CorpusConfig controls the Wikipedia-stand-in document generator.
type CorpusConfig = corpus.Config

// Corpus is a generated document collection with category labels.
type Corpus = corpus.Corpus

// GenerateCorpus builds a category-structured HTML document corpus.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return corpus.Generate(cfg) }

// ---- sharded input ----

// ShardWriter streams rows into a shard directory without holding the
// matrix in memory; see internal/shard for the file format.
type ShardWriter = shard.Writer

// ShardReader exposes a shard directory as a random-access row matrix.
type ShardReader = shard.Reader

// NewShardWriter opens a shard writer for rows of cols values, cutting
// a new file every rowsPerShard rows (0 uses the package default).
func NewShardWriter(dir string, cols, rowsPerShard int) (*ShardWriter, error) {
	return shard.NewWriter(dir, cols, rowsPerShard)
}

// OpenShards opens a shard directory for reading.
func OpenShards(dir string) (*ShardReader, error) { return shard.Open(dir) }

// WriteShards splits an in-memory matrix into row-range shard files
// under dir, for a Run on Source{Dir: dir}.
func WriteShards(dir string, points *Matrix, rowsPerShard int) error {
	w, err := shard.NewWriter(dir, points.Cols(), rowsPerShard)
	if err != nil {
		return err
	}
	for i := 0; i < points.Rows(); i++ {
		if err := w.Append(points.Row(i)); err != nil {
			return errors.Join(err, w.Close())
		}
	}
	return w.Close()
}

// ---- metrics (§5.3) ----

// Accuracy is the fraction of correctly clustered points under the best
// cluster-to-class assignment.
func Accuracy(truth, pred []int) (float64, error) { return metrics.Accuracy(truth, pred) }

// DaviesBouldin computes the DBI of Eq. 20 (lower is better).
func DaviesBouldin(points *Matrix, labels []int) (float64, error) {
	return metrics.DaviesBouldin(points, labels)
}

// AverageSquaredError computes the ASE of Eq. 21 (lower is better).
func AverageSquaredError(points *Matrix, labels []int) (float64, error) {
	return metrics.AverageSquaredError(points, labels)
}

// NMI is normalized mutual information between two labelings.
func NMI(truth, pred []int) (float64, error) { return metrics.NMI(truth, pred) }

// Purity is the majority-class fraction per cluster.
func Purity(truth, pred []int) (float64, error) { return metrics.Purity(truth, pred) }

// AdjustedRand is the chance-corrected Rand index.
func AdjustedRand(truth, pred []int) (float64, error) { return metrics.AdjustedRand(truth, pred) }

// Silhouette is the mean silhouette coefficient of a labeling.
func Silhouette(points *Matrix, labels []int) (float64, error) {
	return metrics.Silhouette(points, labels)
}

// ---- distributed runtimes ----

// Executor runs MapReduce jobs.
type Executor = mapreduce.Executor

// LocalExecutor is the in-process bounded worker pool.
type LocalExecutor = mapreduce.Local

// Master coordinates TCP MapReduce workers.
type Master = mapreduce.Master

// TCPConfig configures a TCP master: listen address, worker quorum, and
// the dial / per-task-exchange deadlines (zero values use the package
// defaults).
type TCPConfig = mapreduce.TCPConfig

// NewMaster starts a TCP MapReduce master on addr that waits for
// minWorkers workers, with default deadlines.
func NewMaster(addr string, minWorkers int) (*Master, error) {
	return mapreduce.NewMaster(addr, minWorkers)
}

// NewMasterTCP starts a TCP MapReduce master from an explicit
// configuration, including tuned deadlines.
func NewMasterTCP(cfg TCPConfig) (*Master, error) {
	return mapreduce.NewMasterTCP(cfg)
}

// RunWorker connects to a master and serves tasks until it closes.
func RunWorker(addr string) error { return mapreduce.RunWorker(addr) }

// RunWorkerContext is RunWorker with cancellation: a done context
// unblocks the worker even while it waits for the next task.
func RunWorkerContext(ctx context.Context, addr string) error {
	return mapreduce.RunWorkerContext(ctx, addr)
}

// EMRCluster is the simulated elastic cluster (Table 2 nodes).
type EMRCluster = emr.Cluster

// NewEMRCluster builds an n-node simulated cluster.
func NewEMRCluster(n int) (*EMRCluster, error) { return emr.NewCluster(n) }

// EMRFlow builds the DASC job flow for a dataset so it can be scheduled
// on simulated clusters of different sizes (Table 3).
func EMRFlow(points *Matrix, cfg Config, beta float64) (*emr.JobFlow, error) {
	flow, _, err := core.EMRFlow(context.Background(), points, cfg, beta)
	return flow, err
}
