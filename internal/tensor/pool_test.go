package tensor

import (
	"math/rand"
	"testing"
)

func TestArenaGetPutRecycles(t *testing.T) {
	ar := NewArena()
	t1 := ar.Get(10, 9)
	if t1.Shape[0] != 10 || t1.Shape[1] != 9 || len(t1.Data) != 90 {
		t.Fatalf("Get shape mismatch: %v len %d", t1.Shape, len(t1.Data))
	}
	p1 := &t1.Data[0]
	ar.Put(t1)
	// 100 floats rounds to the same 128-float size class as 90.
	t2 := ar.Get(100)
	if &t2.Data[0] != p1 {
		t.Fatal("Get after Put did not recycle the backing array")
	}
	if len(t2.Data) != 100 || t2.Shape[0] != 100 {
		t.Fatalf("recycled tensor has wrong shape %v len %d", t2.Shape, len(t2.Data))
	}
	if got := ar.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
	ar.Put(t2)
	if got := ar.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after final Put = %d, want 0", got)
	}
}

func TestArenaPutRejectsForeignTensors(t *testing.T) {
	ar := NewArena()
	// cap 90 is not a power-of-two size class: must not be pooled.
	ar.Put(New(10, 9))
	got := ar.Get(10, 9)
	if cap(got.Data) != 128 {
		t.Fatalf("foreign tensor was pooled: cap %d", cap(got.Data))
	}
	ar.Put(nil) // no-op by contract
}

func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	t1 := ar.Get(64)
	p1 := &t1.Data[0]
	t2 := ar.Reuse(t1, 8, 8)
	if &t2.Data[0] != p1 {
		t.Fatal("Reuse at same size class must return the same backing array")
	}
	if got := ar.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
}

func TestArenaScope(t *testing.T) {
	ar := NewArena()
	sc := ar.Scope()
	sc.Get(16)
	sc.Get(32, 2)
	if got := ar.Outstanding(); got != 2 {
		t.Fatalf("Outstanding inside scope = %d, want 2", got)
	}
	sc.Release()
	if got := ar.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after Release = %d, want 0", got)
	}
}

// TestMatMulSteadyStateZeroAlloc proves the GEMM hot path performs no
// heap allocation once the arena is warm.
func TestMatMulSteadyStateZeroAlloc(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 40, 300)
	b := randTensor(rng, 300, 50)
	dst := New(40, 50)
	MatMul(dst, a, b) // warm the default arena's pack buffers
	if avg := testing.AllocsPerRun(20, func() { MatMul(dst, a, b) }); avg != 0 {
		t.Fatalf("MatMul steady state allocates %.1f times per run", avg)
	}
}

// TestConvSteadyStateZeroAlloc proves a full conv forward+backward cycle
// is allocation-free when its outputs are recycled through the arena.
func TestConvSteadyStateZeroAlloc(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	const n, c, h, w, f = 4, 3, 16, 16, 8
	spec := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := randTensor(rng, n, c, h, w)
	wt := randTensor(rng, f, c*spec.KH*spec.KW)
	bias := randTensor(rng, f)
	dW := New(f, c*spec.KH*spec.KW)
	dB := New(f)
	ar := NewArena()

	step := func() {
		y, cols := Conv2DForwardArena(ar, x, wt, bias, c, h, w, spec)
		dx := Conv2DBackwardArena(ar, y, wt, cols, dW, dB, c, h, w, spec)
		ar.Put(cols)
		ar.Put(y)
		ar.Put(dx)
	}
	step() // warm the arena
	if avg := testing.AllocsPerRun(10, func() { step() }); avg != 0 {
		t.Fatalf("conv forward+backward steady state allocates %.1f times per run", avg)
	}
	if got := ar.Outstanding(); got != 0 {
		t.Fatalf("arena leak: Outstanding = %d, want 0", got)
	}
}
