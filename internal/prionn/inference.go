package prionn

import (
	"math/rand"

	"prionn/internal/mapping"
	"prionn/internal/nn"
	"prionn/internal/tensor"
	"prionn/internal/word2vec"
)

// Inference is the read-only prediction view of a Predictor: the data
// mapping plus the classifier forward passes, with no optimizer state,
// RNG, or persistence machinery. It is what a serving layer holds — a
// snapshot of trained weights that can be published atomically while a
// training Predictor keeps mutating its own copies (see Snapshot and
// the internal/serve package).
//
// An Inference is immutable once built and safe for concurrent use:
// inference forwards write nothing on the nn layers (see nn.Layer), so a
// serving cluster publishes one *Inference to every replica with a
// pointer store and any number of goroutines may Predict on it at once,
// each answer bitwise equal to the serial one
// (TestSharedViewConcurrentPredict). The one exception is a Predictor's
// live view, whose heads its training events write; it never leaves the
// predictor, which clones it (Snapshot) to publish.
type Inference struct {
	cfg       Config
	transform mapping.Transform

	runtime *nn.Sequential
	read    *nn.Sequential
	write   *nn.Sequential
	power   *nn.Sequential

	// kernel names the heads' weights. With KernelInt8 (built by
	// Predictor.SnapshotQuantized or LoadInferenceQuantized, restored by
	// LoadQuantized) every Conv2D and Dense weight is an int8 rounding,
	// whose codes and scales int8 keeps per head, in heads order, for
	// SaveQuantized — and as the Dense layers' only copy (ServeInt8);
	// check is what the agreement check measured.
	kernel KernelKind
	int8   [][]nn.Int8Weights
	check  Agreement

	rbins runtimeBins
	iobin ioBins
	pbins ioBins

	trained bool
}

// KernelKind names the weights an Inference serves; every kind runs the
// same float32 forward. It is part of a snapshot's identity: the serving
// layers tag caches and stats with it, because f32 and int8 snapshots of
// the same training state are distinct predictors (they may disagree on
// a small fraction of bin assignments, within the agreement check's
// bound).
type KernelKind string

const (
	// KernelF32 is the trained float32 weights (the default).
	KernelF32 KernelKind = "f32"
	// KernelInt8 is the same weights rounded through per-output-channel
	// int8 (nn.Sequential.RoundInt8).
	KernelInt8 KernelKind = "int8"
)

// Kernel returns the view's weight kind. The zero value of Inference
// reports KernelF32.
func (v *Inference) Kernel() KernelKind {
	if v.kernel == "" {
		return KernelF32
	}
	return v.kernel
}

// newView builds the view a validated configuration and its embedding
// (nil unless the transform is word2vec) describe — transform and bins —
// without heads.
func newView(cfg Config, emb *word2vec.Embedding) *Inference {
	v := &Inference{
		cfg:   cfg,
		rbins: runtimeBins{Classes: cfg.RuntimeClasses, MaxMin: cfg.MaxRuntimeMin},
		iobin: ioBins{Classes: cfg.IOClasses, Min: cfg.MinIOBytes, Max: cfg.MaxIOBytes},
		pbins: ioBins{Classes: cfg.PowerClasses, Min: cfg.MinPowerW, Max: cfg.MaxPowerW},
	}
	switch cfg.Transform {
	case TransformBinary:
		v.transform = mapping.Binary{}
	case TransformSimple:
		v.transform = mapping.Simple{}
	case TransformOneHot:
		v.transform = mapping.OneHot{}
	case TransformWord2Vec:
		v.transform = mapping.Word2Vec{Emb: emb}
	}
	return v
}

// buildHeads builds every enabled head of the configured architecture,
// drawing initial weights from rng in heads order; a nil rng leaves them
// zero, for weights about to be read or copied in.
func (v *Inference) buildHeads(rng *rand.Rand) {
	arch := nn.ArchConfig{
		Rows:     v.cfg.Rows,
		Cols:     v.cfg.Cols,
		Channels: v.transform.Channels(),
		Width:    v.cfg.Width,
	}
	build := func(classes int) *nn.Sequential {
		a := arch
		a.Classes = classes
		switch v.cfg.Model {
		case ModelNN:
			return nn.NewFullyConnected(rng, a)
		case Model1DCNN:
			return nn.NewCNN1D(rng, a)
		default:
			return nn.NewCNN2D(rng, a)
		}
	}
	v.runtime = build(v.cfg.RuntimeClasses)
	if v.cfg.PredictIO {
		v.read = build(v.cfg.IOClasses)
		v.write = build(v.cfg.IOClasses)
	}
	if v.cfg.PredictPower {
		v.power = build(v.cfg.PowerClasses)
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
	return p.inf.Clone()
}

// Clone returns a deep copy of the view: same config, transform, bins
// and weight kind, with every head's parameters copied into freshly built
// models whose weights are prepared for inference — dense weights
// scanned for the row kernel, conv filter strips and tap tables (the
// predictor's live view prepares them per call). It exists for
// Predictor.Snapshot, whose source keeps training; a published Inference
// is shared as is, never cloned. A prediction from a clone is bitwise
// identical to one from the original. Nothing of an int8 view changes
// once built — its dense layers hold only their codes, which no
// CopyParamsFrom reads — so a clone of one shares its heads.
func (v *Inference) Clone() (*Inference, error) {
	out := *v
	if v.Kernel() == KernelInt8 {
		return &out, nil
	}
	// Fresh heads are built without an RNG: their weights start zero and
	// are overwritten by the parameter copy, so cloning — and
	// Predictor.Snapshot, which delegates here — draws no random number,
	// from a training stream or any other.
	out.buildHeads(nil)
	_, src := v.heads()
	_, dst := out.heads()
	for h, m := range dst {
		if err := m.CopyParamsFrom(src[h]); err != nil {
			return nil, err
		}
		// The copy's weights are final from here on: prepare them once,
		// before the view can be shared.
		m.Prepack()
	}
	return &out, nil
}

// heads returns the view's enabled heads with their names, in checkpoint
// order: runtime, then read and write, then power.
func (v *Inference) heads() (names []string, models []*nn.Sequential) {
	names, models = []string{"runtime"}, []*nn.Sequential{v.runtime}
	if v.cfg.PredictIO {
		names, models = append(names, "read", "write"), append(models, v.read, v.write)
	}
	if v.cfg.PredictPower {
		names, models = append(names, "power"), append(models, v.power)
	}
	return names, models
}

// embedding returns the word2vec embedding the view maps through; nil
// for any other transform.
func (v *Inference) embedding() *word2vec.Embedding {
	if w2v, ok := v.transform.(mapping.Word2Vec); ok {
		return w2v.Emb
	}
	return nil
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
func (v *Inference) InputText(script, deck string) string { return v.cfg.inputText(script, deck) }

// inputText is InputText's rule: a non-empty deck follows the script on
// its own line when IncludeDeck is set.
func (c Config) inputText(script, deck string) string {
	if c.IncludeDeck && deck != "" {
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
	out := make([]Prediction, x.Dim(0))
	for i, c := range v.runtime.PredictClasses(x) {
		out[i].RuntimeMin = v.rbins.Minutes(c)
	}
	if v.cfg.PredictIO {
		for i, c := range v.read.PredictClasses(x) {
			out[i].ReadBytes = v.iobin.Bytes(c)
		}
		for i, c := range v.write.PredictClasses(x) {
			out[i].WriteBytes = v.iobin.Bytes(c)
		}
	}
	if v.cfg.PredictPower {
		for i, c := range v.power.PredictClasses(x) {
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
