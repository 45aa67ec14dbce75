package kernelml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// SVMConfig controls SMO training.
type SVMConfig struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of full passes without updates before
	// SMO stops (default 5).
	MaxPasses int
	// Seed drives the second-multiplier choice.
	Seed int64
}

// SVM is a trained binary kernel support vector machine. Labels are
// -1/+1. Prediction needs the kernel function and the support vectors'
// original points, which the model retains by index.
type SVM struct {
	// Alpha holds the nonzero Lagrange multipliers by training index.
	Alpha map[int]float64
	// B is the bias term.
	B float64
	// Labels are the training labels (+-1).
	Labels []int
	// SupportCount is the number of support vectors.
	SupportCount int
}

// TrainSVM runs simplified SMO (Platt) over a precomputed Gram matrix.
// This is the training-phase bottleneck the paper's §2 discusses — the
// kernel matrix dominates, which is exactly what the LSH approximation
// shrinks. y must contain only +-1; a y with one class gives the
// constant model of that class.
func TrainSVM(gram *matrix.Dense, y []int, cfg SVMConfig) (*SVM, error) {
	n := gram.Rows()
	if gram.Cols() != n {
		return nil, fmt.Errorf("kernelml: gram %dx%d not square", n, gram.Cols())
	}
	if n == 0 {
		return nil, ErrEmptyGram
	}
	if len(y) != n {
		return nil, fmt.Errorf("kernelml: %d labels for %d points", len(y), n)
	}
	for _, v := range y {
		if v != 1 && v != -1 {
			return nil, errors.New("kernelml: SVM labels must be -1 or +1")
		}
	}
	if matrix.IsZero(cfg.C) {
		cfg.C = 1
	}
	if cfg.C < 0 {
		return nil, fmt.Errorf("kernelml: C=%v", cfg.C)
	}
	if matrix.IsZero(cfg.Tol) {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses == 0 {
		cfg.MaxPasses = 5
	}
	if m := constantModel(y); m != nil {
		return m, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		var s float64
		row := gram.Row(i)
		for j, a := range alpha {
			if !matrix.IsZero(a) {
				s += a * float64(y[j]) * row[j]
			}
		}
		return s + b
	}

	passes := 0
	for passes < cfg.MaxPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - float64(y[i])
			if !((float64(y[i])*ei < -cfg.Tol && alpha[i] < cfg.C) ||
				(float64(y[i])*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - float64(y[j])
			aiOld, ajOld := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, ajOld-aiOld)
				hi = math.Min(cfg.C, cfg.C+ajOld-aiOld)
			} else {
				lo = math.Max(0, aiOld+ajOld-cfg.C)
				hi = math.Min(cfg.C, aiOld+ajOld)
			}
			if matrix.ApproxEqual(lo, hi, 0) {
				continue
			}
			eta := 2*gram.At(i, j) - gram.At(i, i) - gram.At(j, j)
			if eta >= 0 {
				continue
			}
			aj := ajOld - float64(y[j])*(ei-ej)/eta
			if aj > hi {
				aj = hi
			} else if aj < lo {
				aj = lo
			}
			if math.Abs(aj-ajOld) < 1e-7 {
				continue
			}
			ai := aiOld + float64(y[i]*y[j])*(ajOld-aj)
			alpha[i], alpha[j] = ai, aj

			b1 := b - ei - float64(y[i])*(ai-aiOld)*gram.At(i, i) -
				float64(y[j])*(aj-ajOld)*gram.At(i, j)
			b2 := b - ej - float64(y[i])*(ai-aiOld)*gram.At(i, j) -
				float64(y[j])*(aj-ajOld)*gram.At(j, j)
			switch {
			case ai > 0 && ai < cfg.C:
				b = b1
			case aj > 0 && aj < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	model := &SVM{Alpha: map[int]float64{}, B: b, Labels: append([]int(nil), y...)}
	for i, a := range alpha {
		if a > 1e-9 {
			model.Alpha[i] = a
			model.SupportCount++
		}
	}
	return model, nil
}

// constantModel returns the model of a single-class y — no support
// vectors and the class as bias, so every prediction is that class — or
// nil when y holds both classes.
func constantModel(y []int) *SVM {
	for _, v := range y[1:] {
		if v != y[0] {
			return nil
		}
	}
	b := 1.0
	if y[0] <= 0 {
		b = -1
	}
	return &SVM{Alpha: map[int]float64{}, B: b, Labels: append([]int(nil), y...)}
}

// Decision evaluates the decision function for a new point, given the
// training points and the kernel (only support vectors are touched —
// the paper's §2 point that SVM testing is cheap compared to training).
func (m *SVM) Decision(train *matrix.Dense, k kernel.Kernel, x []float64) float64 {
	s := m.B
	// Sum over support vectors in ascending index order: float addition
	// does not associate, so summing in map-iteration order would make
	// the decision value (and near-boundary predictions) vary per run.
	for _, i := range m.supportIndices() {
		s += m.Alpha[i] * float64(m.Labels[i]) * k.Eval(train.Row(i), x)
	}
	return s
}

// supportIndices returns the support-vector indices in ascending order,
// giving every Alpha consumer a deterministic summation order.
func (m *SVM) supportIndices() []int {
	idx := make([]int, 0, len(m.Alpha))
	for i := range m.Alpha {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Predict returns the +-1 class for x.
func (m *SVM) Predict(train *matrix.Dense, k kernel.Kernel, x []float64) int {
	if m.Decision(train, k, x) >= 0 {
		return 1
	}
	return -1
}
