package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestInvSqrt(t *testing.T) {
	d := []float64{4, 0, -1, 0.25}
	if got := InvSqrt(d); &got[0] != &d[0] {
		t.Fatal("InvSqrt must work in place")
	}
	if d[0] != 0.5 || d[3] != 2 {
		t.Fatalf("InvSqrt = %v", d)
	}
	if d[1] != 0 || d[2] != 0 {
		t.Fatal("non-positive entries must map to 0")
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) must be 0")
	}
	// No overflow with huge components.
	got := Norm2([]float64{1e200, 1e200})
	if math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestSqDistAndDist(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{3, 4}
	if got := SqDist(x, y); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
	if got := Dist(x, y); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SqDist([]float64{1}, []float64{1, 2})
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AXPY(1, []float64{1}, []float64{1, 2})
}

func TestScaleVec(t *testing.T) {
	x := []float64{1, -2}
	ScaleVec(-2, x)
	if x[0] != -2 || x[1] != 4 {
		t.Fatalf("ScaleVec = %v", x)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if math.Abs(n-5) > 1e-12 {
		t.Fatalf("returned norm %v, want 5", n)
	}
	if math.Abs(Norm2(x)-1) > 1e-12 {
		t.Fatalf("normalized norm = %v, want 1", Norm2(x))
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 || zero[0] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

func TestNormalizeRows(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}, {0, 0}, {0, 2}})
	NormalizeRows(m)
	if math.Abs(Norm2(m.Row(0))-1) > 1e-12 {
		t.Fatal("row 0 not normalized")
	}
	if Norm2(m.Row(1)) != 0 {
		t.Fatal("zero row must remain zero")
	}
	if math.Abs(m.At(2, 1)-1) > 1e-12 {
		t.Fatal("row 2 not normalized")
	}
}

// Property: Cauchy–Schwarz |<x,y>| <= |x| |y|.
func TestPropCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Dist.
func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := range x {
			x[i], y[i], z[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		return Dist(x, z) <= Dist(x, y)+Dist(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
