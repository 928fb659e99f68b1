package nn

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"prionn/internal/tensor"
)

// Sequential is a feed-forward stack of layers trained with softmax
// cross-entropy. It is the model container for all three PRIONN deep
// learning architectures.
type Sequential struct {
	Layers []Layer

	// Training state: built by the first TrainBatch or Backward and
	// dropped when a fit returns (see release).
	params, grads []*tensor.Tensor // in layer order
	first         int              // the first layer with parameters; len(Layers) if none
	dlogits       *tensor.Tensor   // recycled loss gradient
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the full stack and returns the logits. In train mode
// every layer runs on its own and caches what Backward needs; an
// inference forward runs block by block (see block), with each ReLU and
// pool folded into the conv or dense pass before it. The two produce
// the same bits on a stack without dropout. Inference logits are the
// caller's to keep (an arena check-out never returned is just garbage).
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		for _, l := range m.Layers {
			x = l.Forward(x, true)
		}
		return x
	}
	x, _ = m.infer(x)
	return x
}

// infer is the inference forward. A conv or dense block's output is a
// check-out from the default arena and goes back when the next such
// block has produced its own, by when nothing reads it: the check-out
// itself, never a Flatten view of it and never the caller's x. The last
// one (owner, nil if none) holds the logits or is dead: the caller's to
// Put once it has read them.
func (m *Sequential) infer(x *tensor.Tensor) (logits, owner *tensor.Tensor) {
	for i := 0; i < len(m.Layers); {
		var b block
		b, i = nextBlock(m.Layers, i)
		var checkedOut bool
		if x, checkedOut = b.infer(x); checkedOut {
			tensor.DefaultArena().Put(owner)
			owner = x
		}
	}
	return x, owner
}

// Prepack prepares every layer's weights for inference: Dense weights
// scanned once for the row kernel (see Dense.packedW), Conv2D filters
// into strips and a tap table (Conv2D.packedW). It is for a model whose
// weights are final — a snapshot about to be published — and must run
// before the model is shared: it writes the layers. A Dense layer that
// serves int8 codes is prepared already.
func (m *Sequential) Prepack() {
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Dense:
			if l.W != nil {
				l.packedW = tensor.PackB(l.W)
			}
		case *Conv2D:
			l.packedW = tensor.PackConv(l.W, l.InC, l.InH, l.InW, l.Spec)
		}
	}
}

// dropPacked discards what Prepack built; whatever overwrites parameters
// in place calls it so no forward serves stale weights.
func (m *Sequential) dropPacked() {
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Dense:
			l.packedW = nil
		case *Conv2D:
			l.packedW = nil
		}
	}
}

// Backward propagates a logits gradient through the stack, accumulating
// parameter gradients. It stops at the first layer with parameters: the
// layers before it have nothing to accumulate, so the gradient with
// respect to the model input is never formed.
func (m *Sequential) Backward(dy *tensor.Tensor) {
	m.collect()
	for i := len(m.Layers) - 1; i > m.first; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	if m.first == len(m.Layers) {
		return
	}
	if l, ok := m.Layers[m.first].(paramLayer); ok {
		l.backward(dy, false)
	} else {
		m.Layers[m.first].Backward(dy)
	}
}

// TrainBatch performs one optimization step on a batch (inputs x, integer
// labels) and returns the batch loss. At a steady batch shape and one
// worker it allocates nothing.
func (m *Sequential) TrainBatch(x *tensor.Tensor, labels []int, opt *Adam) float64 {
	params, grads := m.collect()
	for _, g := range grads {
		g.Zero()
	}
	logits := m.Forward(x, true)
	m.dlogits = tensor.DefaultArena().Reuse(m.dlogits, logits.Shape...)
	loss := softmaxCrossEntropyInto(m.dlogits, logits, labels)
	m.Backward(m.dlogits)
	opt.Step(params, grads)
	return loss
}

// collect returns the parameters and their gradient accumulators in
// layer order. It lists them — and has the layers allocate their
// accumulators — once per fit.
func (m *Sequential) collect() (params, grads []*tensor.Tensor) {
	if m.grads == nil {
		m.first = len(m.Layers)
		for i, l := range m.Layers {
			p := l.Params()
			if len(p) > 0 && m.first == len(m.Layers) {
				m.first = i
			}
			m.params = append(m.params, p...)
			m.grads = append(m.grads, l.Grads()...)
		}
	}
	return m.params, m.grads
}

// release ends a fit: every layer returns its train-time buffers to the
// arena and drops its gradient accumulators, and so does the model. A
// training event therefore holds one head's buffers at a time, and
// leaves behind only what the arena keeps for the next one.
func (m *Sequential) release() {
	for _, l := range m.Layers {
		if r, ok := l.(releaser); ok {
			r.release()
		}
	}
	tensor.DefaultArena().Put(m.dlogits)
	m.dlogits, m.params, m.grads = nil, nil, nil
}

// Params returns the trainable parameter tensors in stable (layer)
// order — the order Save/Load and Adam's moments use.
func (m *Sequential) Params() []*tensor.Tensor {
	var params []*tensor.Tensor
	for _, l := range m.Layers {
		params = append(params, l.Params()...)
	}
	return params
}

// FitOptions configures Sequential.Fit / FitCtx.
type FitOptions struct {
	Epochs    int
	BatchSize int
	Shuffle   *rand.Rand // nil disables shuffling
}

// Fit trains the model on a dataset of stacked samples x [N, ...] with
// labels, iterating epochs × minibatches, and returns the final epoch's
// mean loss. It is FitCtx without cancellation.
func (m *Sequential) Fit(x *tensor.Tensor, labels []int, opt *Adam, o FitOptions) float64 {
	loss, _ := m.FitCtx(context.Background(), x, labels, opt, o)
	return loss
}

// FitCtx is Fit with cooperative cancellation. The context is polled
// between minibatches, so a canceled training event returns within one
// batch with ctx.Err(). On return the model holds no train-time state
// (see release).
func (m *Sequential) FitCtx(ctx context.Context, x *tensor.Tensor, labels []int, opt *Adam, o FitOptions) (float64, error) {
	n := x.Dim(0)
	if n == 0 {
		return 0, nil
	}
	defer m.release()
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d samples but %d labels", n, len(labels)))
	}
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	if o.BatchSize <= 0 || o.BatchSize > n {
		o.BatchSize = n
	}
	sampleLen := x.Len() / n
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bx := tensor.New(append([]int{o.BatchSize}, x.Shape[1:]...)...)
	bl := make([]int, o.BatchSize)
	var epochLoss float64
	for e := 0; e < o.Epochs; e++ {
		if o.Shuffle != nil {
			o.Shuffle.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var total float64
		batches := 0
		for start := 0; start < n; start += o.BatchSize {
			if err := ctx.Err(); err != nil {
				return epochLoss, err
			}
			end := start + o.BatchSize
			if end > n {
				end = n
			}
			bs := end - start
			var xb *tensor.Tensor
			var lb []int
			if bs == o.BatchSize {
				xb, lb = bx, bl
			} else {
				xb = tensor.New(append([]int{bs}, x.Shape[1:]...)...)
				lb = make([]int, bs)
			}
			for i := 0; i < bs; i++ {
				src := order[start+i]
				copy(xb.Data[i*sampleLen:(i+1)*sampleLen], x.Data[src*sampleLen:(src+1)*sampleLen])
				lb[i] = labels[src]
			}
			total += m.TrainBatch(xb, lb, opt)
			batches++
		}
		epochLoss = total / float64(batches)
	}
	return epochLoss, nil
}

// Predict returns the logits for a batch. It writes nothing on the
// model (see Layer), so concurrent Predicts on one model are safe.
func (m *Sequential) Predict(x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(x, false)
}

// PredictClasses returns the argmax class per sample.
func (m *Sequential) PredictClasses(x *tensor.Tensor) []int {
	logits, owner := m.infer(x)
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.ArgMaxRow(i)
	}
	tensor.DefaultArena().Put(owner)
	return out
}

// Wire format of Save and Adam.SaveState: a little-endian uint32 tensor
// count, then per tensor a record — a uint32 element count and that many
// little-endian float32 bit patterns. Both directions go through one
// fixed conversion buffer, so a save or a load allocates that buffer
// whatever the model's size; a reader takes every size from the tensors
// it fills and only compares the stored counts with them, so damaged
// input cannot make it allocate.
const recordBufLen = 16 << 10

func writeCount(w io.Writer, buf []byte, n int) error {
	binary.LittleEndian.PutUint32(buf, uint32(n))
	_, err := w.Write(buf[:4])
	return err
}

// readCount reads a stored count and requires it to equal want.
func readCount(r io.Reader, buf []byte, want int) error {
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(buf); uint64(got) != uint64(want) {
		return fmt.Errorf("stored count %d, model has %d", got, want)
	}
	return nil
}

func writeTensors(w io.Writer, ts []*tensor.Tensor) error {
	buf := make([]byte, recordBufLen)
	if err := writeCount(w, buf, len(ts)); err != nil {
		return err
	}
	for _, t := range ts {
		if err := writeRecord(w, buf, t.Data); err != nil {
			return err
		}
	}
	return nil
}

// writeRecord writes one record: len(data), then data's bit patterns.
func writeRecord(w io.Writer, buf []byte, data []float32) error {
	if err := writeCount(w, buf, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		n := min(len(data), len(buf)/4)
		for i, f := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readTensors fills ts, in place, from what writeTensors wrote for
// tensors of the same number and sizes; any difference is an error, as
// is input that ends early (io.EOF or io.ErrUnexpectedEOF, wrapped).
func readTensors(r io.Reader, ts []*tensor.Tensor) error {
	buf := make([]byte, recordBufLen)
	if err := readCount(r, buf, len(ts)); err != nil {
		return fmt.Errorf("nn: tensor count: %w", err)
	}
	for i, t := range ts {
		if err := readRecord(r, buf, t.Data); err != nil {
			return fmt.Errorf("nn: tensor %d (shape %v): %w", i, t.Shape, err)
		}
	}
	return nil
}

// skipTensors reads past what writeTensors wrote for tensors of ts's
// number and sizes, checking every count as readTensors does and keeping
// no value: ts is only measured.
func skipTensors(r io.Reader, ts []*tensor.Tensor) error {
	buf := make([]byte, recordBufLen)
	if err := readCount(r, buf, len(ts)); err != nil {
		return fmt.Errorf("nn: tensor count: %w", err)
	}
	for i, t := range ts {
		err := readCount(r, buf, t.Len())
		for n := t.Len(); err == nil && n > 0; n -= len(buf) / 4 {
			_, err = io.ReadFull(r, buf[:4*min(n, len(buf)/4)])
		}
		if err != nil {
			return fmt.Errorf("nn: tensor %d (shape %v): %w", i, t.Shape, err)
		}
	}
	return nil
}

func readRecord(r io.Reader, buf []byte, dst []float32) error {
	if err := readCount(r, buf, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		dst = dst[n:]
	}
	return nil
}

// Save writes the model parameters (not the architecture) to w, in
// Params order. A model restored with Load must be built with the
// identical layer configuration.
func (m *Sequential) Save(w io.Writer) error { return writeTensors(w, m.Params()) }

// Load restores parameters saved by Save into an identically structured
// model, reading straight into its tensors. After an error the
// parameters are partly overwritten and the model must be discarded.
func (m *Sequential) Load(r io.Reader) error {
	m.dropPacked()
	return readTensors(r, m.Params())
}

// CopyParamsFrom copies parameter values from src into m. Both models
// must have identical architectures. This is the warm-start primitive:
// PRIONN retrains the existing parameters rather than re-initializing.
func (m *Sequential) CopyParamsFrom(src *Sequential) error {
	dst, from := m.Params(), src.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("nn: source has %d parameter tensors, model has %d", len(from), len(dst))
	}
	m.dropPacked()
	for i, p := range dst {
		if len(p.Data) != len(from[i].Data) {
			return fmt.Errorf("nn: parameter %d size mismatch: source %d vs model %d (shape %v vs %v)",
				i, len(from[i].Data), len(p.Data), from[i].Shape, p.Shape)
		}
		copy(p.Data, from[i].Data)
	}
	return nil
}

// NumParams returns the total trainable parameter count.
func (m *Sequential) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Len()
	}
	return n
}
