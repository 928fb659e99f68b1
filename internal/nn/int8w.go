package nn

import (
	"fmt"
	"io"
	"math"

	"prionn/internal/tensor"
)

// Int8 weight storage. A model's Conv2D and Dense weights can be rounded
// through per-output-channel symmetric int8 — one channel is a conv
// filter (a row of its [F, C·KH·KW] weights) or a dense output unit (a
// column of its [In, Out] weights), its scale max|w|/127
// (quantizeChannel): weight w becomes float32(q)·scale with
// q = round(w/scale) in [−127, 127]. The float32 forward serves the
// rounded weights — a conv's as float32, a dense layer's (ServeInt8)
// straight from the codes, which the row kernel widens to the same
// float32 values — and the codes and scales are what a quantized
// snapshot stores, a quarter of the float bytes. Biases stay float32. No
// activation is quantized.

// Int8Weights is one Conv2D or Dense layer's weights in int8: Codes in
// the layer's own weight layout, one entry of Scales per output channel.
type Int8Weights struct {
	Codes  []int8
	Scales []float32
}

// quantizeChannel quantizes one output channel's weights symmetrically
// into [-127, 127] and returns the per-channel scale. The dequantized
// error per weight is at most scale/2 (the rounding half-step); the
// property test pins this bound.
func quantizeChannel(dst []int8, w []float32) (scale float32) {
	var maxAbs float32
	for _, v := range w {
		maxAbs = maxAbsStep(maxAbs, v)
	}
	scale = channelScale(maxAbs)
	for i, v := range w {
		dst[i] = quantizeWeight(v, scale)
	}
	return scale
}

// maxAbsStep folds |v| into a running maximum. A NaN never compares
// greater, so it is skipped wherever it falls.
func maxAbsStep(maxAbs, v float32) float32 {
	if v < 0 {
		v = -v
	}
	if v > maxAbs {
		return v
	}
	return maxAbs
}

// channelScale is the scale of a channel whose largest |w| is maxAbs.
func channelScale(maxAbs float32) float32 {
	// Only an all-zero channel has no scale. A tolerance here would
	// misquantize real near-zero channels.
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 127
}

// quantizeWeight is round(v/scale) clamped to [-127, 127].
func quantizeWeight(v, scale float32) int8 {
	return int8(max(-127, min(127, int32(math.Round(float64(v/scale))))))
}

// channels locates the output channels of a Conv2D or Dense layer: n
// channels of per weights each in w, weight j of channel c at
// w.Data[c·cs + j·es], and the layer's bias b.
type channels struct {
	w, b           *tensor.Tensor
	n, per, cs, es int
	dense          *Dense // nil for a Conv2D
}

// int8Layers lists m's Conv2D and Dense layers, in layer order.
func (m *Sequential) int8Layers() []channels {
	var out []channels
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Conv2D:
			k := l.W.Dim(1)
			out = append(out, channels{w: l.W, b: l.B, n: l.Filters, per: k, cs: k, es: 1})
		case *Dense:
			out = append(out, channels{w: l.W, b: l.B, n: l.Out, per: l.In, cs: 1, es: l.Out, dense: l})
		}
	}
	return out
}

// dequantize overwrites the layer's weights with float32(code)·scale, in
// memory order.
func (c channels) dequantize(q Int8Weights) {
	w := c.w.Data
	if c.dense == nil {
		for ch, s := range q.Scales {
			for i := ch * c.per; i < (ch+1)*c.per; i++ {
				w[i] = float32(q.Codes[i]) * s
			}
		}
		return
	}
	for r := 0; r < len(w); r += c.n {
		for j, s := range q.Scales {
			w[r+j] = float32(q.Codes[r+j]) * s
		}
	}
}

// RoundInt8 replaces every Conv2D and Dense weight of m with its int8
// rounding and returns the codes and scales, one entry per such layer in
// layer order. It writes the layers and drops what Prepack built, so it
// is for a model nothing else reads yet — a fresh snapshot — and Prepack
// runs after it.
func (m *Sequential) RoundInt8() []Int8Weights {
	m.dropPacked()
	layers := m.int8Layers()
	out := make([]Int8Weights, len(layers))
	for i, c := range layers {
		q := Int8Weights{Codes: make([]int8, c.w.Len()), Scales: make([]float32, c.n)}
		c.quantize(q)
		c.dequantize(q)
		out[i] = q
	}
	return out
}

// quantize fills q with the layer's codes and scales, walking the
// weights in memory order. A conv's channels are its rows, each one
// quantizeChannel call; a dense layer's are its columns, so every
// column's max |w| is taken in one pass over the rows and the codes in a
// second — quantizeChannel's codes and scales, as the maximum ignores
// order and the rounding is per weight.
func (c channels) quantize(q Int8Weights) {
	w := c.w.Data
	if c.dense == nil {
		for ch := range q.Scales {
			q.Scales[ch] = quantizeChannel(q.Codes[ch*c.per:(ch+1)*c.per], w[ch*c.per:(ch+1)*c.per])
		}
		return
	}
	for r := 0; r < len(w); r += c.n {
		for j, v := range w[r : r+c.n] {
			q.Scales[j] = maxAbsStep(q.Scales[j], v)
		}
	}
	for j, m := range q.Scales {
		q.Scales[j] = channelScale(m)
	}
	for r := 0; r < len(w); r += c.n {
		for j, v := range w[r : r+c.n] {
			q.Codes[r+j] = quantizeWeight(v, q.Scales[j])
		}
	}
}

// ServeInt8 has every Dense layer of m, whose weights RoundInt8 rounded
// to q, serve from q's codes: the layer drops its float weights and its
// product reads the codes through the int8 row kernel, bitwise the
// forward over the rounded weights. Like Prepack, it is for a model not
// yet shared, and Save, Load, CopyParamsFrom and training panic on the
// result.
func (m *Sequential) ServeInt8(q []Int8Weights) {
	for i, c := range m.int8Layers() {
		if c.dense != nil {
			c.dense.serveInt8(q[i])
		}
	}
}

func (d *Dense) serveInt8(q Int8Weights) {
	d.W, d.packedW = nil, tensor.PackBCodes(q.Codes, q.Scales, d.In, d.Out)
}

// SaveInt8 writes q, what RoundInt8 returned for m, and m's biases: a
// layer count, then per Conv2D or Dense layer three counted records —
// its codes (one byte each), its scales and its bias (little-endian
// float32 bit patterns). LoadInt8 reads it back.
func (m *Sequential) SaveInt8(w io.Writer, q []Int8Weights) error {
	layers := m.int8Layers()
	if len(q) != len(layers) {
		return fmt.Errorf("nn: %d int8 layers for a model with %d", len(q), len(layers))
	}
	buf := make([]byte, recordBufLen)
	if err := writeCount(w, buf, len(layers)); err != nil {
		return err
	}
	for i, c := range layers {
		if err := writeCount(w, buf, len(q[i].Codes)); err != nil {
			return err
		}
		for codes := q[i].Codes; len(codes) > 0; {
			n := min(len(codes), len(buf))
			for j, v := range codes[:n] {
				buf[j] = byte(v)
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
			codes = codes[n:]
		}
		if err := writeRecord(w, buf, q[i].Scales); err != nil {
			return err
		}
		if err := writeRecord(w, buf, c.b.Data); err != nil {
			return err
		}
	}
	return nil
}

// LoadInt8 reads what SaveInt8 wrote into m, which must be structured as
// the saved model was: every conv weight becomes float32(code)·scale,
// every Dense layer serves the codes as ServeInt8 has it, and every bias
// is read as stored. It returns the codes and scales. As in Load, a
// stored count is only compared with m's, never used as a length; a scale
// that is not positive and finite is an error too, and input that ends
// early wraps io.EOF or io.ErrUnexpectedEOF. After an error m must be
// discarded.
func (m *Sequential) LoadInt8(r io.Reader) ([]Int8Weights, error) {
	m.dropPacked()
	layers := m.int8Layers()
	buf := make([]byte, recordBufLen)
	if err := readCount(r, buf, len(layers)); err != nil {
		return nil, fmt.Errorf("nn: int8 layer count: %w", err)
	}
	out := make([]Int8Weights, len(layers))
	for i, c := range layers {
		q := Int8Weights{Codes: make([]int8, c.n*c.per), Scales: make([]float32, c.n)}
		if err := readCount(r, buf, len(q.Codes)); err != nil {
			return nil, fmt.Errorf("nn: int8 layer %d codes: %w", i, err)
		}
		for codes := q.Codes; len(codes) > 0; {
			n := min(len(codes), len(buf))
			if _, err := io.ReadFull(r, buf[:n]); err != nil {
				return nil, fmt.Errorf("nn: int8 layer %d codes: %w", i, err)
			}
			for j := range codes[:n] {
				codes[j] = int8(buf[j])
			}
			codes = codes[n:]
		}
		if err := readRecord(r, buf, q.Scales); err != nil {
			return nil, fmt.Errorf("nn: int8 layer %d scales: %w", i, err)
		}
		for _, s := range q.Scales {
			if !(s > 0 && s <= math.MaxFloat32) {
				return nil, fmt.Errorf("nn: int8 layer %d has scale %v", i, s)
			}
		}
		if err := readRecord(r, buf, c.b.Data); err != nil {
			return nil, fmt.Errorf("nn: int8 layer %d bias: %w", i, err)
		}
		if c.dense != nil {
			c.dense.serveInt8(q)
		} else {
			c.dequantize(q)
		}
		out[i] = q
	}
	return out, nil
}
