package prionn

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"prionn/internal/fault"
	"prionn/internal/nn"
	"prionn/internal/word2vec"
)

// checkpointMeta is the gob-encoded meta section of a v3 frame (see
// frame.go): everything but the tensors. The architecture is rebuilt
// from the configuration on load, then each head's parameters and
// optimizer state are read into it. Optimizer state rides along because
// warm-start retraining (and bitwise-identical resume of an interrupted
// event) continues Adam's moment estimates, not a cold optimizer.
type checkpointMeta struct {
	Config    Config
	Embedding *word2vec.Embedding // nil unless Transform == word2vec
	Trained   bool
	Events    int        // completed training events (seeds per-event shuffles)
	Resume    *resumePos // set only in a mid-event training checkpoint
}

// Save serializes the predictor — configuration, embedding, trained
// parameters, and optimizer state — as one checksummed frame, so a
// deployment can restore it without retraining (the paper's tool runs
// persistently on a dedicated node; restarting it must not lose the
// warm-start state) and so Load can reject truncated or corrupt bytes
// with a typed error instead of restoring garbage.
func (p *Predictor) Save(w io.Writer) error { return p.save(w, nil) }

// save streams the v3 frame to w through one buffered writer that feeds
// w and the trailing checksum together.
func (p *Predictor) save(w io.Writer, resume *resumePos) error {
	var meta bytes.Buffer
	cm := checkpointMeta{Config: p.Config, Embedding: p.emb, Trained: p.trained, Events: p.events, Resume: resume}
	if err := gob.NewEncoder(&meta).Encode(cm); err != nil {
		return err
	}
	if meta.Len() > maxMetaLen {
		return fmt.Errorf("prionn: checkpoint meta is %d bytes, over the format's %d", meta.Len(), maxMetaLen)
	}
	sum := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), frameBufLen)
	if err := writeFrameV(bw, frameVersion, meta.Bytes()); err != nil {
		return err
	}
	for _, h := range p.heads() {
		if err := h.model.Save(bw); err != nil {
			return err
		}
		so, stateful := h.opt.(nn.StatefulOptimizer)
		if !stateful {
			_ = bw.WriteByte(0) // a bufio.Writer's error sticks: Flush returns it
			continue
		}
		_ = bw.WriteByte(1)
		if err := so.SaveState(h.model.Params(), bw); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(sum.Sum(nil))
	return err
}

// Load restores a predictor saved with Save. Damaged input is rejected
// with an error wrapping ErrTruncated or ErrCorrupt; Load never returns
// a predictor built from partial bytes. A mid-event training checkpoint
// is refused: it holds a half-fitted model, which ResumeTrain finishes.
func Load(r io.Reader) (*Predictor, error) {
	p, resume, err := load(r)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		return nil, fmt.Errorf("prionn: checkpoint was written mid-event (head %d, epoch %d); continue it with ResumeTrain", resume.Head, resume.Epoch)
	}
	return p, nil
}

// load reads one v3 frame: the predictor and, for a mid-event training
// checkpoint, where its event stood.
func load(r io.Reader) (*Predictor, *resumePos, error) {
	fr := newFrameReader(r)
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr, hdr[:]); err != nil {
		return nil, nil, fr.fail("header", err)
	}
	if !bytes.Equal(hdr[:7], frameMagic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if hdr[7] != frameVersion {
		return nil, nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, hdr[7], frameVersion)
	}
	metaLen := binary.LittleEndian.Uint64(hdr[8:16])
	if metaLen > maxMetaLen {
		return nil, nil, fmt.Errorf("%w: meta length %d over %d", ErrCorrupt, metaLen, maxMetaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(fr, meta); err != nil {
		return nil, nil, fr.fail("meta", err)
	}
	if metaSum := sha256.Sum256(meta); !bytes.Equal(metaSum[:], hdr[16:]) {
		return nil, nil, fmt.Errorf("%w: meta checksum mismatch", ErrCorrupt)
	}
	var cm checkpointMeta
	if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&cm); err != nil {
		return nil, nil, fmt.Errorf("%w: decoding meta: %v", ErrCorrupt, err)
	}
	if err := cm.Config.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: persisted config invalid: %v", ErrCorrupt, err)
	}
	if cm.Config.Transform == TransformWord2Vec && cm.Embedding == nil {
		return nil, nil, fmt.Errorf("%w: persisted word2vec predictor lacks an embedding", ErrCorrupt)
	}
	// The trained embedding is restored rather than retrained, and the
	// heads are built from no RNG: every parameter is about to be read.
	p := newPredictor(cm.Config, cm.Embedding)
	p.initHeads(nil)
	for _, h := range p.heads() {
		if err := h.model.Load(fr); err != nil {
			return nil, nil, fr.fail("parameters", err)
		}
		var flag [1]byte
		if _, err := io.ReadFull(fr, flag[:]); err != nil {
			return nil, nil, fr.fail("optimizer flag", err)
		}
		so, stateful := h.opt.(nn.StatefulOptimizer)
		switch {
		case flag[0] == 0: // saved without optimizer state; a cold optimizer is still valid
		case flag[0] == 1 && stateful:
			if err := so.LoadState(h.model.Params(), fr); err != nil {
				return nil, nil, fr.fail("optimizer state", err)
			}
		default:
			return nil, nil, fmt.Errorf("%w: optimizer flag %d", ErrCorrupt, flag[0])
		}
	}
	// One read takes the trailer and probes for a byte past it.
	want := fr.sum.Sum(nil)
	var trailer [sha256.Size + 1]byte
	switch n, err := io.ReadFull(fr, trailer[:]); {
	case n < sha256.Size:
		return nil, nil, fr.fail("trailing checksum", err)
	case !bytes.Equal(trailer[:sha256.Size], want):
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	case n > sha256.Size:
		return nil, nil, fmt.Errorf("%w: bytes past the trailing checksum", ErrCorrupt)
	case err != io.ErrUnexpectedEOF:
		return nil, nil, fr.fail("end of frame", err)
	}
	p.trained = cm.Trained
	p.events = cm.Events
	return p, cm.Resume, nil
}

// SaveFile writes the predictor to path crash-safely: the snapshot goes
// to a temp file that is fsynced and atomically renamed over path, so a
// failure (or a kill) at any point leaves the previous checkpoint at
// path intact — a deployment never observes a truncated model file.
func (p *Predictor) SaveFile(path string) error {
	return atomicWrite(p.fileSystem(), path, p.Save)
}

// LoadFile restores a predictor from a file written by SaveFile.
func LoadFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close errors carry no data loss
	return Load(f)
}

// SetFS redirects the predictor's persistence writes (SaveFile and
// training checkpoints) through the given file-op layer and returns the
// previous one. The fault-injection tests drive the crash matrix through
// this; nil restores the real filesystem.
func (p *Predictor) SetFS(fsys fault.FS) fault.FS {
	prev := p.fs
	p.fs = fsys
	return prev
}

// fileSystem returns the persistence file-op layer, defaulting to the
// real filesystem.
func (p *Predictor) fileSystem() fault.FS {
	if p.fs == nil {
		return fault.OS{}
	}
	return p.fs
}
