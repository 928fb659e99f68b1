package prionn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"prionn/internal/fault"
	"prionn/internal/mapping"
	"prionn/internal/nn"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

// Int8 serving snapshots. SnapshotQuantized freezes the predictor's
// trained heads into int8 quantized twins (per-output-channel symmetric
// weight scales, per-tensor uint8 activation scales calibrated on a
// held-out slice of the training trace) and returns them as an
// Inference whose Kernel() is KernelInt8. The serving stack treats the
// result exactly like a float snapshot — same Predict surface, shared
// across goroutines the same way — but its forward passes run on the
// tensor package's integer GEMM and its persisted form is a fraction of
// the float frame's size (int8 weights, no optimizer moments).
//
// The accuracy cost of the scheme is bounded by a gate test in this
// package: on trained heads the int8 and float32 paths must agree on
// runtime classes and IO bins for ≥99.5% of evaluation jobs.

// SnapshotQuantized builds an int8 inference snapshot, calibrating
// every activation range on calib — a held-out slice of completed jobs
// that must be non-empty and should be drawn from the same distribution
// as the training window. The predictor must have trained at least
// once: quantizing He-init noise would produce a well-formed snapshot
// of a meaningless model.
//
// Like Predict, SnapshotQuantized must not run beside Train (calibration
// reads the float heads training writes); the returned Inference shares
// nothing mutable with the predictor.
func (p *Predictor) SnapshotQuantized(calib []trace.Job) (*Inference, error) {
	if !p.trained {
		return nil, fmt.Errorf("prionn: cannot quantize an untrained predictor")
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("prionn: quantization requires a non-empty calibration slice")
	}
	texts := make([]string, len(calib))
	for i, j := range calib {
		texts[i] = p.inputText(j.Script, j.InputDeck)
	}
	x := p.mapBatch(texts)
	out := &Inference{
		cfg:       p.Config,
		transform: p.transform,
		kernel:    KernelInt8,
		rbins:     p.rbins,
		iobin:     p.iobin,
		pbins:     p.pbins,
		trained:   p.trained,
	}
	var err error
	if out.qruntime, err = nn.Quantize(p.runtime, x); err != nil {
		return nil, fmt.Errorf("prionn: quantizing runtime head: %w", err)
	}
	if p.Config.PredictIO {
		if out.qread, err = nn.Quantize(p.read, x); err != nil {
			return nil, fmt.Errorf("prionn: quantizing read head: %w", err)
		}
		if out.qwrite, err = nn.Quantize(p.write, x); err != nil {
			return nil, fmt.Errorf("prionn: quantizing write head: %w", err)
		}
	}
	if p.Config.PredictPower {
		if out.qpower, err = nn.Quantize(p.power, x); err != nil {
			return nil, fmt.Errorf("prionn: quantizing power head: %w", err)
		}
	}
	return out, nil
}

// persistedQuant is the gob wire format of a quantized snapshot: the
// configuration, the (immutable) character embedding, and each head's
// serialized QModel. No optimizer state — a quantized snapshot is a
// serving artifact, not a training checkpoint.
type persistedQuant struct {
	Config    Config
	Embedding *word2vec.Embedding // nil unless Transform == word2vec
	Trained   bool
	Runtime   []byte
	Read      []byte
	Write     []byte
	Power     []byte
}

// SaveQuantized serializes an int8 snapshot inside a checksummed frame
// tagged frameVersionQuant, so the float and quantized loaders can
// never be pointed at each other's files undetected. Calling it on a
// float32 view is an error.
func (v *Inference) SaveQuantized(w io.Writer) error {
	payload, err := v.encodeQuantized()
	if err != nil {
		return err
	}
	return writeFrameV(w, frameVersionQuant, payload)
}

// encodeQuantized produces the gob payload SaveQuantized frames.
func (v *Inference) encodeQuantized() ([]byte, error) {
	if v.Kernel() != KernelInt8 {
		return nil, fmt.Errorf("prionn: SaveQuantized on a %s snapshot", v.Kernel())
	}
	pq := persistedQuant{Config: v.cfg, Trained: v.trained}
	if w2v, ok := v.transform.(mapping.Word2Vec); ok {
		pq.Embedding = w2v.Emb
	}
	snap := func(m *nn.QModel) ([]byte, error) {
		if m == nil {
			return nil, nil
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var err error
	if pq.Runtime, err = snap(v.qruntime); err != nil {
		return nil, err
	}
	if pq.Read, err = snap(v.qread); err != nil {
		return nil, err
	}
	if pq.Write, err = snap(v.qwrite); err != nil {
		return nil, err
	}
	if pq.Power, err = snap(v.qpower); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pq); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadQuantized restores an int8 snapshot saved with SaveQuantized.
// Damaged input — truncation, corruption, a float32 frame, or a
// structurally inconsistent quantized model — is rejected with an error
// wrapping ErrTruncated or ErrCorrupt; LoadQuantized never returns a
// snapshot built from partial bytes.
func LoadQuantized(r io.Reader) (*Inference, error) {
	payload, err := readFrameV(r, frameVersionQuant)
	if err != nil {
		return nil, err
	}
	return decodeQuantized(payload)
}

// decodeQuantized rebuilds an int8 snapshot from a verified gob payload.
func decodeQuantized(payload []byte) (*Inference, error) {
	var pq persistedQuant
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pq); err != nil {
		return nil, fmt.Errorf("%w: decoding quantized payload: %v", ErrCorrupt, err)
	}
	if err := pq.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: persisted config invalid: %v", ErrCorrupt, err)
	}
	cfg := pq.Config
	v := &Inference{
		cfg:     cfg,
		kernel:  KernelInt8,
		rbins:   runtimeBins{Classes: cfg.RuntimeClasses, MaxMin: cfg.MaxRuntimeMin},
		iobin:   ioBins{Classes: cfg.IOClasses, Min: cfg.MinIOBytes, Max: cfg.MaxIOBytes},
		pbins:   ioBins{Classes: cfg.PowerClasses, Min: cfg.MinPowerW, Max: cfg.MaxPowerW},
		trained: pq.Trained,
	}
	switch cfg.Transform {
	case TransformBinary:
		v.transform = mapping.Binary{}
	case TransformSimple:
		v.transform = mapping.Simple{}
	case TransformOneHot:
		v.transform = mapping.OneHot{}
	case TransformWord2Vec:
		if pq.Embedding == nil {
			return nil, fmt.Errorf("%w: persisted word2vec snapshot lacks an embedding", ErrCorrupt)
		}
		v.transform = mapping.Word2Vec{Emb: pq.Embedding}
	}
	restore := func(name string, data []byte, required bool) (*nn.QModel, error) {
		if len(data) == 0 {
			if required {
				return nil, fmt.Errorf("%w: quantized snapshot lacks the %s head", ErrCorrupt, name)
			}
			return nil, nil
		}
		m, err := nn.LoadQModel(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%w: %s head: %v", ErrCorrupt, name, err)
		}
		// The forward trusts the chain's declared geometry (LoadQModel
		// checked it against itself); its entry must be the image this
		// config maps a script to.
		if mapped := cfg.Rows * cfg.Cols * v.transform.Channels(); m.InputLen() != mapped {
			return nil, fmt.Errorf("%w: %s head takes %d inputs, the config maps scripts to %d", ErrCorrupt, name, m.InputLen(), mapped)
		}
		return m, nil
	}
	var err error
	if v.qruntime, err = restore("runtime", pq.Runtime, true); err != nil {
		return nil, err
	}
	if v.qread, err = restore("read", pq.Read, cfg.PredictIO); err != nil {
		return nil, err
	}
	if v.qwrite, err = restore("write", pq.Write, cfg.PredictIO); err != nil {
		return nil, err
	}
	if v.qpower, err = restore("power", pq.Power, cfg.PredictPower); err != nil {
		return nil, err
	}
	return v, nil
}

// SaveQuantizedFile writes the snapshot to path crash-safely, with the
// same write-temp → fsync → rename discipline as Predictor.SaveFile.
func (v *Inference) SaveQuantizedFile(path string) error {
	return atomicWrite(fault.OS{}, path, v.SaveQuantized)
}

// LoadQuantizedFile restores a snapshot from a file written by
// SaveQuantizedFile.
func LoadQuantizedFile(path string) (*Inference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close errors carry no data loss
	return LoadQuantized(f)
}
