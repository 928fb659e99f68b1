// Package prionn is the PRIONN tool: it maps whole job scripts to
// image-like data, trains deep learning models on recently completed
// jobs, and predicts per-job runtime and IO (total bytes read and
// written) at submission time (paper §2).
//
// The paper's selected configuration — the word2vec character mapping
// (output size 4) with a 2D CNN of four convolutional and four fully
// connected layers, 64×64 standardized scripts, a 960-class runtime head
// (one class per minute up to the 16-hour cap), training on the 500 most
// recently completed jobs and retraining (warm-start, never
// re-initializing) every 100 submissions — is the default; every knob is
// configurable for the ablations and the scaled-down test runs.
package prionn

import "fmt"

// ModelKind selects the deep learning architecture (paper §2.2).
type ModelKind string

// The three architectures evaluated in the paper.
const (
	ModelNN    ModelKind = "nn"     // fully connected on the flattened 1D sequence
	Model1DCNN ModelKind = "1d-cnn" // 1D convolutions on the flattened sequence
	Model2DCNN ModelKind = "2d-cnn" // 2D convolutions on the script matrix (selected)
)

// TransformKind selects the character-to-pixel transformation (§2.1).
type TransformKind string

// The four data-mapping transformations evaluated in the paper.
const (
	TransformBinary   TransformKind = "binary"
	TransformSimple   TransformKind = "simple"
	TransformOneHot   TransformKind = "one-hot"
	TransformWord2Vec TransformKind = "word2vec" // selected
)

// Config holds every tunable of the PRIONN tool.
type Config struct {
	// Script standardization extent (paper: 64×64).
	Rows, Cols int

	Transform    TransformKind
	EmbeddingDim int // word2vec output size (paper: 4)

	Model ModelKind
	// Width scales hidden-layer sizes (1.0 = paper-scale models; tests
	// use smaller).
	Width float64

	// RuntimeClasses is the width of the runtime output layer; the class
	// range covers [0, MaxRuntimeMin] minutes. With 960 classes and a
	// 960-minute cap each class is one minute (paper).
	RuntimeClasses int
	MaxRuntimeMin  int

	// IOClasses is the width of the two IO heads (total bytes read,
	// total bytes written), binned logarithmically over
	// [MinIOBytes, MaxIOBytes]. The paper does not specify its IO head;
	// log-scale bins match the heavy-tailed byte distribution.
	IOClasses  int
	MinIOBytes float64
	MaxIOBytes float64

	// Online-training loop (§2.3).
	TrainWindow  int // most recently completed jobs to train on (500)
	RetrainEvery int // submissions between retraining events (100)
	Epochs       int // epochs per training event (paper trains 10)
	BatchSize    int
	LR           float64

	// PredictIO enables the two IO heads (runtime is always predicted).
	PredictIO bool

	// IncludeDeck appends each job's application input deck to its
	// script before mapping — the paper's future work ("incorporating
	// application input decks into PRIONN's workflow"). See the
	// ext-deck experiment.
	IncludeDeck bool

	// PredictPower enables a power head predicting each job's mean
	// power draw in watts — the other future-work resource. See the
	// ext-power experiment.
	PredictPower bool
	PowerClasses int
	MinPowerW    float64
	MaxPowerW    float64

	Seed int64
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Rows: 64, Cols: 64,
		Transform:      TransformWord2Vec,
		EmbeddingDim:   4,
		Model:          Model2DCNN,
		Width:          1.0,
		RuntimeClasses: 960,
		MaxRuntimeMin:  960,
		IOClasses:      64,
		MinIOBytes:     1e3,
		MaxIOBytes:     1e14,
		PowerClasses:   48,
		MinPowerW:      50,
		MaxPowerW:      2e5,
		TrainWindow:    500,
		RetrainEvery:   100,
		Epochs:         10,
		BatchSize:      16,
		LR:             3e-3,
		PredictIO:      true,
		Seed:           1,
	}
}

// FastConfig returns a scaled-down configuration that preserves the
// paper's structure (same transform, same architecture family, same
// online loop) at laptop-test cost: 32×32 scripts, half-width models,
// shorter windows.
func FastConfig() Config {
	c := DefaultConfig()
	c.Rows, c.Cols = 32, 32
	c.Width = 0.5
	c.IOClasses = 32
	c.TrainWindow = 400
	c.RetrainEvery = 100
	c.Epochs = 8
	c.BatchSize = 8
	return c
}

// TinyConfig returns the smallest structurally faithful configuration,
// for unit tests.
func TinyConfig() Config {
	c := DefaultConfig()
	c.Rows, c.Cols = 16, 16
	c.EmbeddingDim = 3
	c.Width = 0.25
	c.RuntimeClasses = 64
	c.IOClasses = 16
	c.TrainWindow = 40
	c.RetrainEvery = 25
	c.Epochs = 2
	c.BatchSize = 8
	return c
}

// ScaleConfig resolves the command-line tools' -scale value.
func ScaleConfig(name string) (Config, error) {
	switch name {
	case "tiny":
		return TinyConfig(), nil
	case "fast":
		return FastConfig(), nil
	case "paper":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (tiny, fast, paper)", name)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows < 4 || c.Cols < 4 {
		return fmt.Errorf("prionn: script extent %dx%d too small", c.Rows, c.Cols)
	}
	if c.RuntimeClasses < 2 {
		return fmt.Errorf("prionn: need at least 2 runtime classes")
	}
	if c.MaxRuntimeMin < 1 {
		return fmt.Errorf("prionn: non-positive runtime cap")
	}
	if c.PredictIO {
		if c.IOClasses < 2 {
			return fmt.Errorf("prionn: need at least 2 IO classes")
		}
		if !(c.MaxIOBytes > c.MinIOBytes) || c.MinIOBytes <= 0 {
			return fmt.Errorf("prionn: bad IO byte range [%g, %g]", c.MinIOBytes, c.MaxIOBytes)
		}
	}
	if c.PredictPower {
		if c.PowerClasses < 2 {
			return fmt.Errorf("prionn: need at least 2 power classes")
		}
		if !(c.MaxPowerW > c.MinPowerW) || c.MinPowerW <= 0 {
			return fmt.Errorf("prionn: bad power range [%g, %g]", c.MinPowerW, c.MaxPowerW)
		}
	}
	if c.TrainWindow < 1 || c.RetrainEvery < 1 {
		return fmt.Errorf("prionn: bad online-loop parameters")
	}
	switch c.Model {
	case ModelNN, Model1DCNN, Model2DCNN:
	default:
		return fmt.Errorf("prionn: unknown model %q", c.Model)
	}
	switch c.Transform {
	case TransformBinary, TransformSimple, TransformOneHot, TransformWord2Vec:
	default:
		return fmt.Errorf("prionn: unknown transform %q", c.Transform)
	}
	return nil
}
