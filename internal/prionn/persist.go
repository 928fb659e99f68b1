package prionn

import (
	"bufio"
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
// warm-start retraining after a restart continues Adam's moment
// estimates, not a cold optimizer.
//
// Files written before this struct lost its Resume field (a position
// inside an interrupted training event, nil in every completed save)
// still decode: gob skips a field the receiving struct does not have.
type checkpointMeta struct {
	Config    Config
	Embedding *word2vec.Embedding // nil unless Transform == word2vec
	Trained   bool
	Events    int // completed training events (seeds per-event shuffles)
}

// Save serializes the predictor — configuration, embedding, trained
// parameters, and optimizer state — as one checksummed frame, so a
// deployment can restore it without retraining (the paper's tool runs
// persistently on a dedicated node; restarting it must not lose the
// warm-start state) and so Load can reject truncated or corrupt bytes
// with a typed error instead of restoring garbage.
func (p *Predictor) Save(w io.Writer) error {
	cm := checkpointMeta{Config: p.Config, Embedding: p.emb, Trained: p.trained, Events: p.events}
	return writeFrame(w, frameVersion, cm, p.saveHeads)
}

// saveHeads streams the v3 frame's body: per head its parameters, an
// optimizer flag byte and, when that is 1, the optimizer state.
func (p *Predictor) saveHeads(bw *bufio.Writer) error {
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
	return nil
}

// Load restores a predictor saved with Save. Damaged input is rejected
// with an error wrapping ErrTruncated or ErrCorrupt; Load never returns
// a predictor built from partial bytes.
func Load(r io.Reader) (*Predictor, error) {
	var cm checkpointMeta
	fr, err := openFrame(r, frameVersion, &cm)
	if err != nil {
		return nil, err
	}
	p, err := restore(cm.Config, cm.Embedding)
	if err != nil {
		return nil, err
	}
	for _, h := range p.heads() {
		if err := h.model.Load(fr); err != nil {
			return nil, fr.fail("parameters", err)
		}
		var flag [1]byte
		if _, err := io.ReadFull(fr, flag[:]); err != nil {
			return nil, fr.fail("optimizer flag", err)
		}
		so, stateful := h.opt.(nn.StatefulOptimizer)
		switch {
		case flag[0] == 0: // saved without optimizer state; a cold optimizer is still valid
		case flag[0] == 1 && stateful:
			if err := so.LoadState(h.model.Params(), fr); err != nil {
				return nil, fr.fail("optimizer state", err)
			}
		default:
			return nil, fmt.Errorf("%w: optimizer flag %d", ErrCorrupt, flag[0])
		}
	}
	if err := fr.close(); err != nil {
		return nil, err
	}
	p.trained = cm.Trained
	p.events = cm.Events
	return p, nil
}

// restore builds the predictor a frame's meta describes, once the meta is
// shown able to describe one: a valid config, and the embedding a
// word2vec transform needs. The trained embedding is restored rather than
// retrained, and the heads are built from no RNG — every parameter is
// about to be read.
func restore(cfg Config, emb *word2vec.Embedding) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: persisted config invalid: %v", ErrCorrupt, err)
	}
	if cfg.Transform == TransformWord2Vec && emb == nil {
		return nil, fmt.Errorf("%w: persisted word2vec predictor lacks an embedding", ErrCorrupt)
	}
	p := newPredictor(cfg, emb)
	p.initHeads(nil)
	return p, nil
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

// SetFS redirects the predictor's persistence writes (SaveFile) through
// the given file-op layer and returns the previous one. The
// fault-injection tests drive the crash matrix through this; nil
// restores the real filesystem.
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
