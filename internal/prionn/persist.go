package prionn

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
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
// estimates, not a cold optimizer; a serving view has no use for it, and
// LoadInference reads past it.
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
	cm := checkpointMeta{Config: p.Config, Embedding: p.inf.embedding(), Trained: p.inf.trained, Events: p.events}
	return writeFrame(w, frameVersion, cm, p.saveHeads)
}

// saveHeads streams the v3 frame's body: per head its parameters, the
// optimizer flag byte 1 and the head's Adam state. (Readers also accept
// flag 0, a head saved without optimizer state.)
func (p *Predictor) saveHeads(bw *bufio.Writer) error {
	for _, h := range p.heads() {
		if err := h.model.Save(bw); err != nil {
			return err
		}
		_ = bw.WriteByte(1) // a bufio.Writer's error sticks: Flush returns it
		if err := h.opt.SaveState(h.model.Params(), bw); err != nil {
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
	v, err := restoreView(cm.Config, cm.Embedding)
	if err != nil {
		return nil, err
	}
	opts := coldOptimizers(v)
	_, models := v.heads()
	err = readHeads(fr, models, func(h int, r io.Reader) error {
		return opts[h].LoadState(models[h].Params(), r)
	})
	if err != nil {
		return nil, err
	}
	v.trained = cm.Trained
	return &Predictor{
		Config: cm.Config,
		inf:    v,
		opts:   opts,
		rng:    rand.New(rand.NewSource(cm.Config.Seed)),
		events: cm.Events,
	}, nil
}

// LoadInference restores the weights of a checkpoint saved with Save as a
// serving view, and returns it with the checkpoint's count of completed
// training events. It walks the frame as Load does, with one difference:
// each head's optimizer records are read through the checksummed frame,
// their counts checked as Adam.LoadState checks them, and discarded
// (nn.SkipAdamState). No predictor, optimizer moment or second copy of
// the weights is built: the view holds the one copy, prepared for
// inference, and predicts bitwise as Load's predictor's Snapshot does.
// Damaged input is rejected as Load rejects it.
func LoadInference(r io.Reader) (*Inference, int, error) {
	var cm checkpointMeta
	fr, err := openFrame(r, frameVersion, &cm)
	if err != nil {
		return nil, 0, err
	}
	v, err := restoreView(cm.Config, cm.Embedding)
	if err != nil {
		return nil, 0, err
	}
	_, models := v.heads()
	err = readHeads(fr, models, func(h int, r io.Reader) error {
		return nn.SkipAdamState(models[h].Params(), r)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, m := range models {
		m.Prepack()
	}
	v.trained = cm.Trained
	return v, cm.Events, nil
}

// readHeads walks the body of a v3 frame into models, in heads order —
// per head its parameters, an optimizer flag byte and, when that is 1,
// the optimizer state, which readState consumes — then closes the frame.
func readHeads(fr *frameReader, models []*nn.Sequential, readState func(h int, r io.Reader) error) error {
	for h, m := range models {
		if err := m.Load(fr); err != nil {
			return fr.fail("parameters", err)
		}
		var flag [1]byte
		if _, err := io.ReadFull(fr, flag[:]); err != nil {
			return fr.fail("optimizer flag", err)
		}
		switch flag[0] {
		case 0: // saved without optimizer state; a cold optimizer is still valid
		case 1:
			if err := readState(h, fr); err != nil {
				return fr.fail("optimizer state", err)
			}
		default:
			return fmt.Errorf("%w: optimizer flag %d", ErrCorrupt, flag[0])
		}
	}
	return fr.close()
}

// checkMeta reports whether a frame's meta can describe a model: a valid
// config, and the embedding a word2vec transform needs. The trained
// embedding is restored rather than retrained.
func checkMeta(cfg Config, emb *word2vec.Embedding) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: persisted config invalid: %v", ErrCorrupt, err)
	}
	if cfg.Transform == TransformWord2Vec && emb == nil {
		return fmt.Errorf("%w: persisted word2vec predictor lacks an embedding", ErrCorrupt)
	}
	return nil
}

// restoreView builds the view a frame's meta describes, once checkMeta
// passes it, with heads built from no RNG: every parameter is about to be
// read.
func restoreView(cfg Config, emb *word2vec.Embedding) (*Inference, error) {
	if err := checkMeta(cfg, emb); err != nil {
		return nil, err
	}
	v := newView(cfg, emb)
	v.buildHeads(nil)
	return v, nil
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
