package prionn

import (
	"prionn/internal/mapping"
	"prionn/internal/nn"
	"prionn/internal/tensor"
)

// Inference is the read-only prediction view of a Predictor: the data
// mapping plus the classifier forward passes, with no optimizer state,
// RNG, or persistence machinery. It is what a serving layer holds — a
// snapshot of trained weights that can be published atomically while a
// training Predictor keeps mutating its own copies (see Snapshot and
// the internal/serve package).
//
// An Inference is immutable once built and safe for concurrent use:
// inference forwards write nothing on the nn layers (see nn.Layer) and
// the int8 heads are stateless, so a serving cluster publishes one
// *Inference to every replica with a pointer store and any number of
// goroutines may Predict on it at once, each answer bitwise equal to
// the serial one (TestSharedViewConcurrentPredict). The one exception
// is the zero-copy view a Predictor predicts through, which shares the
// predictor's heads and so inherits its single-goroutine contract.
type Inference struct {
	cfg       Config
	transform mapping.Transform

	runtime *nn.Sequential
	read    *nn.Sequential
	write   *nn.Sequential
	power   *nn.Sequential

	// kernel selects the forward-pass arithmetic: KernelF32 runs the
	// float heads above; KernelInt8 runs the quantized heads below
	// (built by Predictor.SnapshotQuantized, restored by LoadQuantized).
	kernel   KernelKind
	qruntime *nn.QModel
	qread    *nn.QModel
	qwrite   *nn.QModel
	qpower   *nn.QModel

	rbins runtimeBins
	iobin ioBins
	pbins ioBins

	trained bool
}

// KernelKind names the forward-pass arithmetic of an Inference. It is
// part of a snapshot's identity: the serving layers tag caches and
// stats with it, because f32 and int8 snapshots of the same weights are
// distinct predictors (they may disagree on a small fraction of bin
// assignments, within the accuracy gate's bound).
type KernelKind string

const (
	// KernelF32 is the float32 blocked-GEMM path (the default).
	KernelF32 KernelKind = "f32"
	// KernelInt8 is the quantized path: int8 weights, uint8
	// activations, int32 accumulation, dequantized only at the logits.
	KernelInt8 KernelKind = "int8"
)

// Kernel returns the view's forward-pass kind. The zero value of
// Inference (and every snapshot taken before quantization existed)
// reports KernelF32.
func (v *Inference) Kernel() KernelKind {
	if v.kernel == "" {
		return KernelF32
	}
	return v.kernel
}

// view returns an Inference sharing the predictor's heads in place —
// the zero-copy view the Predictor's own Predict path runs through.
// Training mutates those heads, so it must not outlive the call.
func (p *Predictor) view() *Inference {
	return &Inference{
		cfg:       p.Config,
		transform: p.transform,
		runtime:   p.runtime,
		read:      p.read,
		write:     p.write,
		power:     p.power,
		rbins:     p.rbins,
		iobin:     p.iobin,
		pbins:     p.pbins,
		trained:   p.trained,
	}
}

// Snapshot returns an Inference with deep-copied weights: a frozen
// picture of the predictor at this instant, safe to hand to a serving
// goroutine while the predictor continues training. The copy shares the
// (immutable) word2vec embedding and transform but owns every model
// parameter tensor, so subsequent Train calls on the predictor never
// show through. Snapshot does not consume the predictor's RNG stream,
// so taking one leaves training bitwise-reproducible.
func (p *Predictor) Snapshot() (*Inference, error) {
	return p.view().Clone()
}

// Clone returns a deep copy of the view: same config, transform, and
// bins, with every float head's parameters copied into freshly built
// models whose weights are prepared for inference — dense weights
// scanned for the row kernel, conv filter strips and tap tables (the
// float32 counterpart of the int8 heads' packed panels; the predictor's
// own zero-copy view prepares them per call). It exists for
// Predictor.Snapshot, whose source keeps training; a published Inference
// is shared as is, never cloned. A prediction from a clone is bitwise
// identical to one from the original. Quantized heads are immutable, so
// a clone shares them.
func (v *Inference) Clone() (*Inference, error) {
	out := *v
	arch := nn.ArchConfig{
		Rows:     v.cfg.Rows,
		Cols:     v.cfg.Cols,
		Channels: v.transform.Channels(),
		Classes:  0,
		Width:    v.cfg.Width,
	}
	// Fresh heads are built without an RNG: their weights start zero and
	// are overwritten by the parameter copy, so cloning — and
	// Predictor.Snapshot, which delegates here — draws no random number,
	// from a training stream or any other.
	clone := func(src *nn.Sequential, classes int) (*nn.Sequential, error) {
		if src == nil {
			return nil, nil
		}
		a := arch
		a.Classes = classes
		var m *nn.Sequential
		switch v.cfg.Model {
		case ModelNN:
			m = nn.NewFullyConnected(nil, a)
		case Model1DCNN:
			m = nn.NewCNN1D(nil, a)
		default:
			m = nn.NewCNN2D(nil, a)
		}
		if err := m.CopyParamsFrom(src); err != nil {
			return nil, err
		}
		// The copy's weights are final from here on: prepare them once,
		// before the view can be shared.
		m.Prepack()
		return m, nil
	}
	var err error
	if out.runtime, err = clone(v.runtime, v.cfg.RuntimeClasses); err != nil {
		return nil, err
	}
	if out.read, err = clone(v.read, v.cfg.IOClasses); err != nil {
		return nil, err
	}
	if out.write, err = clone(v.write, v.cfg.IOClasses); err != nil {
		return nil, err
	}
	if out.power, err = clone(v.power, v.cfg.PowerClasses); err != nil {
		return nil, err
	}
	return &out, nil
}

// Config returns the configuration the view was built with.
func (v *Inference) Config() Config { return v.cfg }

// RuntimeClass maps a runtime in minutes onto the view's classifier
// bins — the class a perfect model would emit for that runtime. Shadow
// evaluation uses it to score class accuracy between two views' decoded
// predictions on the same bin layout.
func (v *Inference) RuntimeClass(minutes int) int { return v.rbins.Class(minutes) }

// IOClass maps a total byte count onto the view's IO classifier bins;
// the class-accuracy analogue of RuntimeClass for the read/write heads.
func (v *Inference) IOClass(bytes float64) int { return v.iobin.Class(bytes) }

// Trained reports whether the underlying predictor had completed at
// least one training event when the view was taken. An untrained view
// emits meaningless forward passes; callers (the serve layer) must fall
// back to the job's user-requested runtime instead — the paper's
// behaviour before the first training event.
func (v *Inference) Trained() bool { return v.trained }

// InputText assembles the model input for one job: the script, with the
// input deck appended when IncludeDeck is set.
func (v *Inference) InputText(script, deck string) string {
	if v.cfg.IncludeDeck && deck != "" {
		return script + "\n" + deck
	}
	return script
}

// MapTexts transforms already-assembled input texts into the model
// input layout (the mapping stage of a prediction). The NN and 1D-CNN
// consume the flattened 1D sequence; the 2D-CNN consumes the 2D matrix.
// Both views share the same underlying mapped buffer (§2.1).
func (v *Inference) MapTexts(texts []string) *tensor.Tensor {
	x := mapping.MapBatch(texts, v.transform, v.cfg.Rows, v.cfg.Cols)
	if v.cfg.Model == Model1DCNN {
		return x.Reshape(x.Dim(0), v.transform.Channels(), 1, v.cfg.Rows*v.cfg.Cols)
	}
	return x
}

// PredictMapped runs the classifier forward passes over an
// already-mapped batch (the forward stage of a prediction) and decodes
// the argmax classes through the bins.
func (v *Inference) PredictMapped(x *tensor.Tensor) []Prediction {
	type head interface {
		PredictClasses(*tensor.Tensor) []int
	}
	runtime, read, write, power := head(v.runtime), head(v.read), head(v.write), head(v.power)
	if v.Kernel() == KernelInt8 {
		runtime, read, write, power = v.qruntime, v.qread, v.qwrite, v.qpower
	}
	out := make([]Prediction, x.Dim(0))
	for i, c := range runtime.PredictClasses(x) {
		out[i].RuntimeMin = v.rbins.Minutes(c)
	}
	if v.cfg.PredictIO {
		for i, c := range read.PredictClasses(x) {
			out[i].ReadBytes = v.iobin.Bytes(c)
		}
		for i, c := range write.PredictClasses(x) {
			out[i].WriteBytes = v.iobin.Bytes(c)
		}
	}
	if v.cfg.PredictPower {
		for i, c := range power.PredictClasses(x) {
			out[i].PowerW = v.pbins.Bytes(c)
		}
	}
	return out
}

// Predict returns predictions for a batch of job scripts: MapTexts
// followed by PredictMapped. See Trained for the untrained-weights
// contract.
func (v *Inference) Predict(scripts []string) []Prediction {
	if len(scripts) == 0 {
		return nil
	}
	return v.PredictMapped(v.MapTexts(scripts))
}

// PredictOne returns the prediction for a single job script.
func (v *Inference) PredictOne(script string) Prediction {
	return v.Predict([]string{script})[0]
}
