package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", x.Dim(1))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := x.Data[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout wrong: Data[9] = %v", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone shape differs")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share data")
	}
	z := x.Reshape(-1, 2)
	if z.Shape[0] != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Shape[0])
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.Sub(b)
	for i, w := range []float32{1, 2, 3, 4} {
		if a.Data[i] != w {
			t.Fatalf("Sub[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.Mul(b)
	for i, w := range []float32{10, 40, 90, 160} {
		if a.Data[i] != w {
			t.Fatalf("Mul[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.Scale(0.5)
	if a.Data[3] != 80 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	a.AddScaled(2, b)
	if a.Data[0] != 5+20 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestSumMaxArgMax(t *testing.T) {
	x := FromSlice([]float32{3, -1, 7, 2}, 4)
	if s := x.Sum(); s != 11 {
		t.Fatalf("Sum = %v, want 11", s)
	}
	if m := x.Max(); m != 7 {
		t.Fatalf("Max = %v, want 7", m)
	}
	if i := x.ArgMax(); i != 2 {
		t.Fatalf("ArgMax = %d, want 2", i)
	}
	y := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	if i := y.ArgMaxRow(1); i != 0 {
		t.Fatalf("ArgMaxRow(1) = %d, want 0", i)
	}
	if i := y.ArgMaxRow(0); i != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", i)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	x.SoftmaxRows()
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range x.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v, want 1", r, sum)
		}
	}
	// Row 1 is uniform; row 0 increasing.
	if !(x.At(0, 0) < x.At(0, 1) && x.At(0, 1) < x.At(0, 2)) {
		t.Fatal("softmax not monotone")
	}
	if math.Abs(float64(x.At(1, 0))-1.0/3.0) > 1e-5 {
		t.Fatalf("uniform row wrong: %v", x.At(1, 0))
	}
}

func TestSoftmaxRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(16)
		x := New(rows, cols).RandN(r, 10)
		x.SoftmaxRows()
		for i := 0; i < rows; i++ {
			var sum float64
			for _, v := range x.Row(i) {
				if v < 0 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2, -3}, 4)
	x.ReLU()
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v, want %v", i, x.Data[i], w)
		}
	}
}

func TestClipNorm(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	n := x.ClipNorm(1)
	if math.Abs(n-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 5", n)
	}
	if got := x.L2Norm(); math.Abs(got-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// No clipping when under the bound.
	y := FromSlice([]float32{0.3, 0.4}, 2)
	y.ClipNorm(1)
	if y.Data[0] != 0.3 {
		t.Fatal("ClipNorm changed an in-bound tensor")
	}
}

func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func almostEqual(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > tol {
			t.Fatalf("element %d: got %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 17, 9}} {
		a := New(dims[0], dims[1]).RandN(rng, 1)
		b := New(dims[1], dims[2]).RandN(rng, 1)
		got := MatMul(nil, a, b)
		want := matmulNaive(a, b)
		almostEqual(t, got, want, 1e-3)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := New(64, 32).RandN(rng, 1)
	b := New(32, 48).RandN(rng, 1)
	prev := SetMaxWorkers(1)
	serial := MatMul(nil, a, b)
	SetMaxWorkers(4)
	par := MatMul(nil, a, b)
	SetMaxWorkers(prev)
	almostEqual(t, par, serial, 1e-5)
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(6, 4).RandN(rng, 1) // [k=6, m=4]
	b := New(6, 5).RandN(rng, 1) // [k=6, n=5]
	got := MatMulTransA(nil, a, b)
	want := matmulNaive(a.Transpose(), b)
	almostEqual(t, got, want, 1e-4)
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := New(4, 6).RandN(rng, 1) // [m=4, k=6]
	b := New(5, 6).RandN(rng, 1) // [n=5, k=6]
	got := MatMulTransB(nil, a, b)
	want := matmulNaive(a, b.Transpose())
	almostEqual(t, got, want, 1e-4)
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dimension mismatch")
		}
	}()
	MatMul(nil, New(2, 3), New(4, 5))
}

func TestMatMulProperty(t *testing.T) {
	// (A·B)·v == A·(B·v) for random matrices — associativity through the
	// kernel catches indexing errors.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := New(m, k).RandN(rng, 1)
		b := New(k, n).RandN(rng, 1)
		v := New(n, 1).RandN(rng, 1)
		left := MatMul(nil, MatMul(nil, a, b), v)
		right := MatMul(nil, a, MatMul(nil, b, v))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose()
	if y.Shape[0] != 3 || y.Shape[1] != 2 {
		t.Fatalf("transpose shape %v", y.Shape)
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", y.Data)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	x.AddRowVector(v)
	if x.At(1, 2) != 36 || x.At(0, 0) != 11 {
		t.Fatalf("AddRowVector wrong: %v", x.Data)
	}
	s := x.SumRows(nil)
	want := []float32{11 + 14, 22 + 25, 33 + 36}
	for i, w := range want {
		if s.Data[i] != w {
			t.Fatalf("SumRows[%d] = %v, want %v", i, s.Data[i], w)
		}
	}
}

func TestHeXavierInitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(10000).HeInit(rng, 50)
	var mean, sq float64
	for _, v := range x.Data {
		mean += float64(v)
		sq += float64(v) * float64(v)
	}
	mean /= float64(x.Len())
	std := math.Sqrt(sq/float64(x.Len()) - mean*mean)
	wantStd := math.Sqrt(2.0 / 50)
	if math.Abs(mean) > 0.01 || math.Abs(std-wantStd)/wantStd > 0.1 {
		t.Fatalf("He init mean=%v std=%v, want mean≈0 std≈%v", mean, std, wantStd)
	}
	y := New(10000).XavierInit(rng, 30, 70)
	limit := math.Sqrt(6.0 / 100)
	for _, v := range y.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("Xavier sample %v outside ±%v", v, limit)
		}
	}
}
