package matrix

import "math"

// Dot returns the inner product of x and y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	checkLen("dot", x, y)
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// InvSqrt replaces each entry of d by d_i^{-1/2}, in place, and returns
// d. Non-positive entries map to 0, the convention for isolated points
// in normalized Laplacians: a zero-degree row stays zero.
func InvSqrt(d []float64) []float64 {
	for i, v := range d {
		if v > 0 {
			d[i] = 1 / math.Sqrt(v)
		} else {
			d[i] = 0
		}
	}
	return d
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if IsZero(v) {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// SqDist returns the squared Euclidean distance between x and y.
// It panics if the lengths differ.
func SqDist(x, y []float64) float64 {
	checkLen("sqdist", x, y)
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between x and y.
func Dist(x, y []float64) float64 { return math.Sqrt(SqDist(x, y)) }

// AXPY computes y += a*x in place. It panics if the lengths differ.
func AXPY(a float64, x, y []float64) {
	checkLen("axpy", x, y)
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Normalize scales x to unit Euclidean length in place and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if IsZero(n) {
		return 0
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return n
}

// NormalizeRows scales each row of m to unit Euclidean length in place.
// Zero rows are left unchanged. This is the Ng–Jordan–Weiss Y-step.
func NormalizeRows(m *Dense) {
	for i := 0; i < m.Rows(); i++ {
		Normalize(m.Row(i))
	}
}
