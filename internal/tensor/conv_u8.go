package tensor

// Quantized-activation companions to conv.go: the same im2col and
// max-pool shapes over uint8 data. Out-of-range taps pack the
// activation zero point rather than byte 0 — in the asymmetric u8
// scheme the zero point is the quantized representation of real 0.0,
// so padding stays an exact zero after dequantization. Max pooling is
// exact in the quantized domain because quantization is monotonic: the
// u8 maximum is the quantization of the float maximum.

// fillU8 sets every byte of s to v. The compiler keeps this loop tight;
// it exists so the im2col padding path isn't a byte-at-a-time branch.
func fillU8(s []uint8, v uint8) {
	for i := range s {
		s[i] = v
	}
}

// im2colU8Into expands one sample x [C,H,W] into column-matrix rows of
// length OH*OW written at row stride ld starting at dst[0], packing zp
// for taps outside the padded input.
//
// The stride-1 case — every conv layer in this codebase — runs on span
// operations: per output row, a zp fill for the left pad, one copy for
// the contiguous interior, a zp fill for the right pad. The serving
// profile is dominated by this expansion (the int8 GEMM itself is
// bandwidth-trivial next to it), so the byte-at-a-time tap loop is kept
// only for exotic strides.
func im2colU8Into(dst []uint8, ld int, x []uint8, c, h, w int, spec ConvSpec, zp uint8) {
	oh, ow := spec.OutDims(h, w)
	idx := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < spec.KH; ky++ {
			for kx := 0; kx < spec.KW; kx++ {
				row := dst[idx*ld:]
				di := 0
				if spec.Stride == 1 {
					// Valid ox range: lo ≤ ox < hi keeps ix inside [0, w).
					lo := spec.PadW - kx
					if lo < 0 {
						lo = 0
					}
					hi := w - kx + spec.PadW
					if hi > ow {
						hi = ow
					}
					if hi < lo {
						hi = lo
					}
					if ow == w && oh == h {
						// 'Same' geometry: source and destination share the
						// row stride, so all valid output rows of this tap
						// form ONE contiguous copy — the per-row pad columns
						// get neighbor bytes from it and are overwritten
						// with zp after. One memmove of ~OH·OW bytes beats
						// OH separate w-byte copies by a wide margin.
						oyLo := spec.PadH - ky
						if oyLo < 0 {
							oyLo = 0
						}
						oyHi := h - ky + spec.PadH
						if oyHi > oh {
							oyHi = oh
						}
						fillU8(row[:oyLo*ow], zp)
						fillU8(row[oyHi*ow:oh*ow], zp)
						if oyLo < oyHi {
							src := base + (oyLo+ky-spec.PadH)*w + lo + kx - spec.PadW
							length := (oyHi-1-oyLo)*w + hi - lo
							copy(row[oyLo*ow+lo:oyLo*ow+lo+length], x[src:src+length])
							if lo > 0 || hi < ow {
								for oy := oyLo; oy < oyHi; oy++ {
									d := oy * ow
									fillU8(row[d:d+lo], zp)
									fillU8(row[d+hi:d+ow], zp)
								}
							}
						}
						idx++
						continue
					}
					for oy := 0; oy < oh; oy++ {
						iy := oy + ky - spec.PadH
						if iy < 0 || iy >= h {
							fillU8(row[di:di+ow], zp)
							di += ow
							continue
						}
						src := base + iy*w + lo + kx - spec.PadW
						fillU8(row[di:di+lo], zp)
						copy(row[di+lo:di+hi], x[src:src+hi-lo])
						fillU8(row[di+hi:di+ow], zp)
						di += ow
					}
					idx++
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.Stride + ky - spec.PadH
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							row[di] = zp
							di++
						}
						continue
					}
					rowBase := base + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.Stride + kx - spec.PadW
						if ix < 0 || ix >= w {
							row[di] = zp
						} else {
							row[di] = x[rowBase+ix]
						}
						di++
					}
				}
				idx++
			}
		}
	}
}

// Im2ColBatchU8 expands the whole batch x [N,C,H,W] (flat, row-major)
// into one shared column matrix cols [C*KH*KW, N*OH*OW] where sample i
// owns the column block [i*OH*OW, (i+1)*OH*OW). The fill is
// sample-parallel: workers write disjoint column ranges of every row.
func Im2ColBatchU8(cols, x []uint8, n, c, h, w int, spec ConvSpec, zp uint8) {
	oh, ow := spec.OutDims(h, w)
	colW := oh * ow
	ld := n * colW
	ParallelForMin(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			im2colU8Into(cols[i*colW:], ld, x[i*c*h*w:(i+1)*c*h*w], c, h, w, spec, zp)
		}
	})
}

// MaxPool2DForwardU8 applies max pooling to x [N, C, H, W] (flat,
// row-major u8) with the given window/stride spec (padding must be
// zero) and writes the pooled output into y [N, C, OH, OW]. The
// maximum is order-independent, so the result is deterministic for any
// worker count. It is the quantized forward's pool, under
// Conv2DInferU8's fan-out rule: workers take whole samples,
// inferParallelMin cells each.
func MaxPool2DForwardU8(y, x []uint8, n, c, h, w int, spec ConvSpec) {
	if spec.PadH != 0 || spec.PadW != 0 {
		panic("tensor: MaxPool2DForwardU8 does not support padding")
	}
	oh, ow := spec.OutDims(h, w)
	minChunk, _ := inferSerial(n, c*h*w)
	// Fast path for the ubiquitous 2×2/stride-2 window with no ragged
	// edge: the maximum of four loads, no seeding branches.
	if spec.KH == 2 && spec.KW == 2 && spec.Stride == 2 && 2*oh <= h && 2*ow <= w {
		ParallelForMin(n, minChunk, func(lo, hi int) {
			for p := lo * c; p < hi*c; p++ {
				inBase := p * h * w
				outBase := p * oh * ow
				for oy := 0; oy < oh; oy++ {
					r0 := x[inBase+2*oy*w : inBase+2*oy*w+2*ow]
					r1 := x[inBase+(2*oy+1)*w : inBase+(2*oy+1)*w+2*ow]
					dst := y[outBase+oy*ow : outBase+(oy+1)*ow]
					for ox := range dst {
						best := r0[2*ox]
						if v := r0[2*ox+1]; v > best {
							best = v
						}
						if v := r1[2*ox]; v > best {
							best = v
						}
						if v := r1[2*ox+1]; v > best {
							best = v
						}
						dst[ox] = best
					}
				}
			}
		})
		return
	}
	ParallelForMin(n, minChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ch := 0; ch < c; ch++ {
				inBase := (i*c + ch) * h * w
				outBase := (i*c + ch) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var best uint8
						seeded := false
						for ky := 0; ky < spec.KH; ky++ {
							iy := oy*spec.Stride + ky
							if iy >= h {
								break
							}
							for kx := 0; kx < spec.KW; kx++ {
								ix := ox*spec.Stride + kx
								if ix >= w {
									break
								}
								v := x[inBase+iy*w+ix]
								if !seeded || v > best {
									best, seeded = v, true
								}
							}
						}
						y[outBase+oy*ow+ox] = best
					}
				}
			}
		}
	})
}
