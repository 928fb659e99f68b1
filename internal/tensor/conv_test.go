package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// conv2dNaive is a direct O(N·F·OH·OW·C·KH·KW) reference implementation.
func conv2dNaive(x, weights, bias *Tensor, c, h, w int, spec ConvSpec) *Tensor {
	n := x.Shape[0]
	f := weights.Shape[0]
	oh, ow := spec.OutDims(h, w)
	y := New(n, f, oh, ow)
	for i := 0; i < n; i++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < spec.KH; ky++ {
							iy := oy*spec.Stride + ky - spec.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < spec.KW; kx++ {
								ix := ox*spec.Stride + kx - spec.PadW
								if ix < 0 || ix >= w {
									continue
								}
								xv := x.Data[((i*c+ch)*h+iy)*w+ix]
								wv := weights.Data[fi*(c*spec.KH*spec.KW)+(ch*spec.KH+ky)*spec.KW+kx]
								s += float64(xv) * float64(wv)
							}
						}
					}
					if bias != nil {
						s += float64(bias.Data[fi])
					}
					y.Data[((i*f+fi)*oh+oy)*ow+ox] = float32(s)
				}
			}
		}
	}
	return y
}

func TestConvSpecOutDims(t *testing.T) {
	s := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	oh, ow := s.OutDims(8, 8)
	if oh != 8 || ow != 8 {
		t.Fatalf("same-pad 3x3: got %dx%d, want 8x8", oh, ow)
	}
	s = ConvSpec{KH: 2, KW: 2, Stride: 2}
	oh, ow = s.OutDims(8, 6)
	if oh != 4 || ow != 3 {
		t.Fatalf("2x2/2 pool: got %dx%d, want 4x3", oh, ow)
	}
}

func TestConvSpecValidate(t *testing.T) {
	cases := []struct {
		spec ConvSpec
		h, w int
		ok   bool
	}{
		{ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}, 8, 8, true},
		{ConvSpec{KH: 0, KW: 3, Stride: 1}, 8, 8, false},
		{ConvSpec{KH: 3, KW: 3, Stride: 0}, 8, 8, false},
		{ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: -1, PadW: -1}, 8, 8, false},
		{ConvSpec{KH: 9, KW: 9, Stride: 1}, 4, 4, false},
	}
	for i, c := range cases {
		err := c.spec.Validate(c.h, c.w)
		if (err == nil) != c.ok {
			t.Fatalf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestConv2DForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	configs := []struct {
		n, c, h, w, f int
		spec          ConvSpec
	}{
		{1, 1, 5, 5, 1, ConvSpec{KH: 3, KW: 3, Stride: 1}},
		{2, 3, 8, 8, 4, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
		{3, 2, 7, 9, 5, ConvSpec{KH: 3, KW: 3, Stride: 2, PadH: 1, PadW: 1}},
		{2, 4, 6, 6, 3, ConvSpec{KH: 5, KW: 5, Stride: 1, PadH: 2, PadW: 2}},
		{1, 2, 1, 16, 3, ConvSpec{KH: 1, KW: 3, Stride: 1, PadH: 1, PadW: 1}}, // 1D conv as 2D
		{2, 2, 1, 9, 3, ConvSpec{KH: 1, KW: 5, Stride: 2, PadW: 4}},           // strided, taps wholly in the padding
		{1, 1, 3, 2, 2, ConvSpec{KH: 3, KW: 5, Stride: 3, PadH: 1, PadW: 2}},  // kernel wider than the image
	}
	for i, cfg := range configs {
		x := New(cfg.n, cfg.c, cfg.h, cfg.w).RandN(rng, 1)
		wt := New(cfg.f, cfg.c*cfg.spec.KH*cfg.spec.KW).RandN(rng, 1)
		b := New(cfg.f).RandN(rng, 1)
		got, _ := Conv2DForward(x, wt, b, cfg.c, cfg.h, cfg.w, cfg.spec)
		want := conv2dNaive(x, wt, b, cfg.c, cfg.h, cfg.w, cfg.spec)
		if !got.SameShape(want) {
			t.Fatalf("config %d: shape %v vs %v", i, got.Shape, want.Shape)
		}
		for j := range got.Data {
			if math.Abs(float64(got.Data[j]-want.Data[j])) > 1e-3 {
				t.Fatalf("config %d: elem %d got %v want %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the two must be adjoint linear
	// maps for the conv backward pass to be correct.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 3+rng.Intn(6), 3+rng.Intn(6)
		spec := ConvSpec{KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), PadH: rng.Intn(2), PadW: rng.Intn(2)}
		if spec.Validate(h, w) != nil {
			return true
		}
		oh, ow := spec.OutDims(h, w)
		colRows := c * spec.KH * spec.KW
		x := New(c, h, w).RandN(rng, 1)
		y := New(colRows, oh*ow).RandN(rng, 1)
		cols := New(colRows, oh*ow)
		Im2Col(cols, x, c, h, w, spec)
		lhs := Dot(cols, y)
		back := New(c, h, w)
		Col2Im(back, y, c, h, w, spec)
		rhs := Dot(x, back)
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// numericalGrad estimates d loss / d theta[i] where loss = sum(conv(x)·g).
func convLoss(x, wt, b *Tensor, c, h, w int, spec ConvSpec, g *Tensor) float64 {
	y, _ := Conv2DForward(x, wt, b, c, h, w, spec)
	return Dot(y, g)
}

func TestConv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n, c, h, w, f := 2, 2, 6, 6, 3
	spec := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := New(n, c, h, w).RandN(rng, 1)
	wt := New(f, c*spec.KH*spec.KW).RandN(rng, 1)
	b := New(f).RandN(rng, 1)
	oh, ow := spec.OutDims(h, w)
	g := New(n, f, oh, ow).RandN(rng, 1)

	_, cols := Conv2DForward(x, wt, b, c, h, w, spec)
	dW := New(f, c*spec.KH*spec.KW)
	dB := New(f)
	dx := Conv2DBackward(g, wt, cols, dW, dB, c, h, w, spec)

	const eps = 1e-2
	check := func(name string, theta *Tensor, grad *Tensor, indices []int) {
		for _, i := range indices {
			orig := theta.Data[i]
			theta.Data[i] = orig + eps
			up := convLoss(x, wt, b, c, h, w, spec, g)
			theta.Data[i] = orig - eps
			down := convLoss(x, wt, b, c, h, w, spec, g)
			theta.Data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(grad.Data[i])
			if math.Abs(num-got) > 1e-1*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, got, num)
			}
		}
	}
	check("weight", wt, dW, []int{0, 5, 17, len(wt.Data) - 1})
	check("bias", b, dB, []int{0, 1, 2})
	check("input", x, dx, []int{0, 10, 77, len(x.Data) - 1})
}

func TestConv2DBackwardParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, c, h, w, f := 8, 2, 8, 8, 4
	spec := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := New(n, c, h, w).RandN(rng, 1)
	wt := New(f, c*spec.KH*spec.KW).RandN(rng, 1)
	oh, ow := spec.OutDims(h, w)
	g := New(n, f, oh, ow).RandN(rng, 1)
	_, cols := Conv2DForward(x, wt, nil, c, h, w, spec)

	run := func(workers int) (*Tensor, *Tensor) {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		dW := New(f, c*spec.KH*spec.KW)
		dB := New(f)
		dx := Conv2DBackward(g, wt, cols, dW, dB, c, h, w, spec)
		return dW, dx
	}
	dW1, dx1 := run(1)
	dW4, dx4 := run(4)
	for i := range dW1.Data {
		if math.Abs(float64(dW1.Data[i]-dW4.Data[i])) > 1e-3 {
			t.Fatalf("dW differs between 1 and 4 workers at %d", i)
		}
	}
	for i := range dx1.Data {
		if math.Abs(float64(dx1.Data[i]-dx4.Data[i])) > 1e-4 {
			t.Fatalf("dx differs between 1 and 4 workers at %d", i)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	// 1 sample, 1 channel, 4x4 with known values.
	x := FromSlice([]float32{
		1, 2, 5, 3,
		4, 0, 1, 2,
		7, 8, 0, 1,
		2, 9, 3, 6,
	}, 1, 1, 4, 4)
	spec := ConvSpec{KH: 2, KW: 2, Stride: 2}
	y, argmax := MaxPool2DForward(x, 1, 4, 4, spec, true)
	want := []float32{4, 5, 9, 6}
	for i, wv := range want {
		if y.Data[i] != wv {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], wv)
		}
	}
	dy := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := MaxPool2DBackward(dy, argmax, 1, 1, 4, 4)
	// Gradient flows only to the argmax positions.
	if dx.Data[4] != 1 || dx.Data[2] != 1 || dx.Data[13] != 1 || dx.Data[15] != 1 {
		t.Fatalf("pool backward wrong: %v", dx.Data)
	}
	if s := dx.Sum(); s != 4 {
		t.Fatalf("pool backward total %v, want 4", s)
	}
}

func TestMaxPoolGradientSumPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(3), 1+rng.Intn(3)
		h, w := 4+rng.Intn(5), 4+rng.Intn(5)
		spec := ConvSpec{KH: 2, KW: 2, Stride: 2}
		x := New(n, c, h, w).RandN(rng, 1)
		y, argmax := MaxPool2DForward(x, c, h, w, spec, true)
		dy := New(y.Shape...).Fill(1)
		dx := MaxPool2DBackward(dy, argmax, n, c, h, w)
		// Every unit of upstream gradient lands somewhere in dx.
		return math.Abs(dx.Sum()-dy.Sum()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
