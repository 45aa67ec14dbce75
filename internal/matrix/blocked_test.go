package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func randomDenseSeed(rows, cols int, seed int64) *Dense {
	return randomDense(rand.New(rand.NewSource(seed)), rows, cols)
}

func TestGatherRows(t *testing.T) {
	m := randomDenseSeed(10, 4, 3)
	idxs := []int{7, 0, 3, 3}
	buf := GatherRows(nil, m, idxs)
	if len(buf) != len(idxs)*m.Cols() {
		t.Fatalf("gathered length %d", len(buf))
	}
	for k, idx := range idxs {
		for j := 0; j < m.Cols(); j++ {
			if !ApproxEqual(buf[k*m.Cols()+j], m.At(idx, j), 0) {
				t.Fatalf("row %d col %d mismatch", k, j)
			}
		}
	}
	// A large enough buffer is reused, not reallocated.
	big := make([]float64, 100)
	out := GatherRows(big, m, idxs)
	if &out[0] != &big[0] {
		t.Fatal("GatherRows must reuse a sufficient buffer")
	}
	if len(GatherRows(nil, m, nil)) != 0 {
		t.Fatal("empty gather must be empty")
	}
}

// TestDotBlock: every output is Dot of its pair bit for bit, in the
// micro-tile's columns and the ragged tail's alike.
func TestDotBlock(t *testing.T) {
	a := randomDenseSeed(5, 7, 4)
	for _, rb := range []int{3, 4, 7, 9} {
		b := randomDenseSeed(rb, 7, int64(rb))
		out := make([]float64, 5*rb)
		DotBlock(a.Data(), 5, b.Data(), rb, 7, out)
		for i := 0; i < 5; i++ {
			for j := 0; j < rb; j++ {
				if want := Dot(a.Row(i), b.Row(j)); math.Float64bits(out[i*rb+j]) != math.Float64bits(want) {
					t.Fatalf("rb=%d: out[%d,%d] = %v, Dot %v", rb, i, j, out[i*rb+j], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad out length")
		}
	}()
	DotBlock(a.Data(), 5, a.Data(), 5, 7, make([]float64, 2))
}

func TestSqDistBlockBitwise(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, 5e-324}
	rng := rand.New(rand.NewSource(15))
	fill := func(v []float64, withSpecial bool) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
			if withSpecial && rng.Intn(4) == 0 {
				v[i] = special[rng.Intn(len(special))]
			}
		}
	}
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	for _, d := range []int{0, 1, 3, 4, 5, 7, 64} {
		for rb := 0; rb <= 9; rb++ {
			for _, withSpecial := range []bool{false, true} {
				x := make([]float64, d)
				b := make([]float64, rb*d)
				fill(x, withSpecial)
				fill(b, withSpecial)
				out := make([]float64, rb)
				SqDistBlock(x, b, rb, out)
				for j := range out {
					if want := SqDist(x, b[j*d:(j+1)*d]); !same(out[j], want) {
						t.Fatalf("d=%d rb=%d special=%v: block out[%d] = %x, SqDist %x",
							d, rb, withSpecial, j, math.Float64bits(out[j]), math.Float64bits(want))
					}
				}
				// Gathered: four pairs with their own left and right rows,
				// picked from the block in a scattered order.
				if rb == 0 {
					continue
				}
				xs := make([]float64, 4*d)
				fill(xs, withSpecial)
				var xr, yr [4][]float64
				for p := range xr {
					xr[p] = xs[p*d : (p+1)*d]
					r := (3*p + 1) % rb
					yr[p] = b[r*d : (r+1)*d]
				}
				var got [4]float64
				got[0], got[1], got[2], got[3] = SqDist4(xr[0], yr[0], xr[1], yr[1], xr[2], yr[2], xr[3], yr[3])
				for p := range got {
					if want := SqDist(xr[p], yr[p]); !same(got[p], want) {
						t.Fatalf("d=%d rb=%d special=%v: gathered pair %d = %x, SqDist %x",
							d, rb, withSpecial, p, math.Float64bits(got[p]), math.Float64bits(want))
					}
				}
			}
		}
	}

	x := make([]float64, 64)
	b := make([]float64, 9*64)
	fill(x, false)
	fill(b, false)
	out := make([]float64, 9)
	var sink float64
	if allocs := testing.AllocsPerRun(20, func() {
		SqDistBlock(x, b, 9, out)
		s0, s1, s2, s3 := SqDist4(x, b[:64], x, b[64:128], b[128:192], b[192:256], b[256:320], x)
		sink += s0 + s1 + s2 + s3
	}); allocs != 0 {
		t.Fatalf("SqDistBlock + SqDist4 allocate %v times per run, want 0", allocs)
	}

	for name, f := range map[string]func(){
		"block b length":   func() { SqDistBlock(x, b[:5], 9, out) },
		"block out length": func() { SqDistBlock(x, b, 9, out[:8]) },
		"gathered length":  func() { SqDist4(x, x, x, x, x, x, x, x[:63]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a shape panic", name)
				}
			}()
			f()
		}()
	}
}

var sqDistSink float64

// BenchmarkSqDistBlock: one 64-dim row against 41 rows (the shape of
// corpus-local's embedded assignment scan) through the single-chain
// SqDist, the contiguous micro-tile and the gathered four-pair form.
func BenchmarkSqDistBlock(b *testing.B) {
	const d, rb = 64, 41
	m := randomDenseSeed(rb+1, d, 3)
	x, rows := m.Row(rb), m.Data()[:rb*d]
	out := make([]float64, rb)
	b.Run("sqdist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < rb; j++ {
				out[j] = SqDist(x, rows[j*d:(j+1)*d])
			}
		}
		sqDistSink += out[0]
	})
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SqDistBlock(x, rows, rb, out)
		}
		sqDistSink += out[0]
	})
	b.Run("gathered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := 0
			for ; j+4 <= rb; j += 4 {
				out[j], out[j+1], out[j+2], out[j+3] = SqDist4(
					x, rows[j*d:(j+1)*d], x, rows[(j+1)*d:(j+2)*d],
					x, rows[(j+2)*d:(j+3)*d], x, rows[(j+3)*d:(j+4)*d])
			}
			for ; j < rb; j++ {
				out[j] = SqDist(x, rows[j*d:(j+1)*d])
			}
		}
		sqDistSink += out[0]
	})
}
