package prionn

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"prionn/internal/fault"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

// Int8 snapshots. SnapshotQuantized rounds every Conv2D and Dense weight
// of the predictor's trained heads through per-output-channel int8
// (nn.Sequential.RoundInt8) and returns them as an Inference whose
// Kernel() is KernelInt8. It is served by the same float32 forward as
// any snapshot — the serving stack treats it exactly like one — with its
// Dense layers reading their int8 codes in place of float weights, and
// its persisted form (SaveQuantized, a v4 frame) holds the int8 codes,
// per-channel scales and float32 biases: a tenth of the float
// checkpoint, which also carries Adam's moments. LoadInferenceQuantized
// builds the same snapshot straight from a float checkpoint, rounding the
// one copy of the weights LoadInference read.

// maxInt8Flip bounds, per head, the share of SnapshotQuantized's check
// jobs whose decoded class the int8 weights may change.
const maxInt8Flip = 0.05

// checkBatch caps the jobs the agreement check maps and forwards at once.
// The check's scratch stays in the default arena for the process's
// lifetime, so its batch is one the serving forward's own batches reach,
// not a size class only the check ever fills.
const checkBatch = 32

// Agreement is what SnapshotQuantized's check measured: over Jobs
// held-out jobs, per head (Heads, in checkpoint order), the share Flip
// whose decoded class differs from the float heads'.
type Agreement struct {
	Jobs  int
	Heads []string
	Flip  []float64
}

// String lists the flip rate per head, e.g. "runtime 0.0039, read 0".
func (a Agreement) String() string {
	parts := make([]string, len(a.Heads))
	for i, h := range a.Heads {
		parts[i] = fmt.Sprintf("%s %.4g", h, a.Flip[i])
	}
	return strings.Join(parts, ", ")
}

// Agreement returns the check SnapshotQuantized or LoadInferenceQuantized
// ran when it built v: the zero Agreement for any other view,
// LoadQuantized's included.
func (v *Inference) Agreement() Agreement { return v.check }

// SnapshotQuantized returns a snapshot of the predictor whose Conv2D and
// Dense weights are rounded through per-output-channel int8. check is a
// held-out slice of completed jobs — drawn from the distribution of the
// training window, but not from it — on which every head's decoded
// class must agree with the float heads' for all but maxInt8Flip of the
// jobs; otherwise SnapshotQuantized returns an error. The predictor must
// have trained at least once: rounding He-init noise would produce a
// well-formed snapshot of a meaningless model.
//
// It is Snapshot followed by the rounding and check, on the snapshot's
// own copy of the weights. Like Snapshot, SnapshotQuantized must not run
// beside Train; the returned Inference shares nothing mutable with the
// predictor.
func (p *Predictor) SnapshotQuantized(check []trace.Job) (*Inference, error) {
	v, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	if err := v.quantize(check); err != nil {
		return nil, err
	}
	return v, nil
}

// LoadInferenceQuantized is LoadInference followed by SnapshotQuantized's
// rounding and agreement check, applied to the loaded weights in place:
// the float classes of check are recorded, the weights rounded through
// int8, and the int8 classes compared with the recorded ones. One copy of
// the weights exists throughout, and the snapshot — its SaveQuantized
// bytes and its Agreement — is the one Load followed by SnapshotQuantized
// builds from the same checkpoint and check slice.
func LoadInferenceQuantized(r io.Reader, check []trace.Job) (*Inference, int, error) {
	v, events, err := LoadInference(r)
	if err != nil {
		return nil, 0, err
	}
	if err := v.quantize(check); err != nil {
		return nil, 0, err
	}
	return v, events, nil
}

// quantize rounds every Conv2D and Dense weight of v's heads through
// per-output-channel int8 in place — the Dense layers then serve from
// their codes and drop their float weights — makes v a KernelInt8 view
// and runs the agreement check on check, recording it in v.check. It writes the
// heads, so it runs only on a view this package has just built and not
// yet handed out: a published Inference stays immutable.
func (v *Inference) quantize(check []trace.Job) error {
	if !v.trained {
		return fmt.Errorf("prionn: cannot quantize an untrained predictor")
	}
	if len(check) == 0 {
		return fmt.Errorf("prionn: the int8 agreement check needs a non-empty slice of held-out jobs")
	}
	names, heads := v.heads()
	// classes decodes every head's class for every check job, through the
	// heads' current weights.
	classes := func() [][]int {
		out := make([][]int, len(heads))
		texts := make([]string, 0, checkBatch)
		for lo := 0; lo < len(check); lo += checkBatch {
			texts = texts[:0]
			for _, j := range check[lo:min(lo+checkBatch, len(check))] {
				texts = append(texts, v.InputText(j.Script, j.InputDeck))
			}
			x := v.MapTexts(texts)
			for h, m := range heads {
				out[h] = append(out[h], m.PredictClasses(x)...)
			}
		}
		return out
	}
	float := classes()
	v.kernel = KernelInt8
	for _, m := range heads {
		q := m.RoundInt8()
		m.ServeInt8(q)
		m.Prepack()
		v.int8 = append(v.int8, q)
	}
	v.check = Agreement{Jobs: len(check), Heads: names, Flip: make([]float64, len(heads))}
	for h, got := range classes() {
		flips := 0
		for i, c := range got {
			if c != float[h][i] {
				flips++
			}
		}
		f := float64(flips) / float64(len(check))
		if f > maxInt8Flip {
			return fmt.Errorf("prionn: int8 weights change the %s head's class on %.1f%% of %d check jobs, over the %.0f%% bound",
				names[h], 100*f, len(check), 100*maxInt8Flip)
		}
		v.check.Flip[h] = f
	}
	return nil
}

// quantMeta is the gob-encoded meta section of a v4 frame (see
// frame.go). A quantized snapshot is a serving artifact, not a training
// checkpoint: no optimizer state, no event counter.
type quantMeta struct {
	Config    Config
	Embedding *word2vec.Embedding // nil unless Transform == word2vec
	Trained   bool
}

// SaveQuantized streams an int8 snapshot to w as a v4 frame, whose
// version byte keeps the float and quantized loaders from ever being
// pointed at each other's files undetected. Calling it on a float32 view
// is an error.
func (v *Inference) SaveQuantized(w io.Writer) error {
	if v.Kernel() != KernelInt8 {
		return fmt.Errorf("prionn: SaveQuantized on a %s snapshot", v.Kernel())
	}
	meta := quantMeta{Config: v.cfg, Embedding: v.embedding(), Trained: v.trained}
	_, heads := v.heads()
	return writeFrame(w, frameVersionQuant, meta, func(bw *bufio.Writer) error {
		for h, m := range heads {
			if err := m.SaveInt8(bw, v.int8[h]); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadQuantized restores an int8 snapshot saved with SaveQuantized; it
// predicts bitwise as the saved one did. Damaged input — truncation,
// corruption, another frame version — is rejected with an error wrapping
// ErrTruncated or ErrCorrupt; LoadQuantized never returns a snapshot
// built from partial bytes.
func LoadQuantized(r io.Reader) (*Inference, error) {
	var meta quantMeta
	fr, err := openFrame(r, frameVersionQuant, &meta)
	if err != nil {
		return nil, err
	}
	v, err := restoreView(meta.Config, meta.Embedding)
	if err != nil {
		return nil, err
	}
	v.trained = meta.Trained
	v.kernel = KernelInt8
	_, heads := v.heads()
	for _, m := range heads {
		q, err := m.LoadInt8(fr)
		if err != nil {
			return nil, fr.fail("int8 weights", err)
		}
		v.int8 = append(v.int8, q)
	}
	if err := fr.close(); err != nil {
		return nil, err
	}
	for _, m := range heads {
		m.Prepack()
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
