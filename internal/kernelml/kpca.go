package kernelml

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// KPCAResult holds a kernel principal component analysis.
type KPCAResult struct {
	// Projections is the n x k matrix of kernel principal components.
	Projections *matrix.Dense
	// Eigenvalues of the centered Gram matrix, descending, length k.
	Eigenvalues []float64
}

// KernelPCA computes the top-k kernel principal components from a Gram
// matrix (Schölkopf et al., the paper's reference [31] for kernel
// dimensionality reduction): double-center the Gram matrix, take its
// leading eigenpairs, and scale eigenvectors by sqrt(lambda) so row i
// of Projections is the image of point i in the principal subspace.
// Only gram's upper triangle is read, and it is centred in place: the
// input is consumed.
func KernelPCA(gram *matrix.Sym, k int) (*KPCAResult, error) {
	n := gram.N()
	if n == 0 {
		return nil, ErrEmptyGram
	}
	if k < 1 {
		return nil, fmt.Errorf("kernelml: k=%d", k)
	}
	if k > n {
		k = n
	}
	centerGram(gram)
	vals, vecs, err := linalg.TopKEigenSym(gram, k)
	if err != nil {
		return nil, fmt.Errorf("kernelml: kpca eigensolver: %w", err)
	}
	proj := matrix.NewDense(n, len(vals))
	for c, lambda := range vals {
		var scale float64
		if lambda > 0 {
			// Scale the unit eigenvector so its coordinates have
			// variance lambda along the component.
			scale = math.Sqrt(lambda)
		}
		for r := 0; r < n; r++ {
			proj.Set(r, c, vecs.At(r, c)*scale)
		}
	}
	return &KPCAResult{Projections: proj, Eigenvalues: vals}, nil
}

// centerGram applies the double-centering K - 1K - K1 + 1K1 that moves
// the feature-space origin to the data mean, in place.
func centerGram(gram *matrix.Sym) {
	n := gram.N()
	rowMean := gram.RowSums()
	var total float64
	for i, s := range rowMean {
		rowMean[i] = s / float64(n)
		total += s
	}
	grand := total / float64(n*n)
	for i := 0; i < n; i++ {
		row := gram.Row(i)
		for t := range row {
			row[t] = row[t] - rowMean[i] - rowMean[i+t] + grand
		}
	}
}
