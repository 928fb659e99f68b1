package prionn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"prionn/internal/fault"
)

// trainedPredictor builds a tiny trained predictor for persistence
// tests.
func trainedPredictor(t *testing.T, n int) *Predictor {
	t.Helper()
	jobs := testJobs(n)
	cfg := TinyConfig()
	cfg.PredictIO = true
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSaveFileCrashMatrix is the tentpole's persistence proof: for every
// injectable fault point during SaveFile — create, each write, fsync,
// close, rename, directory sync — in every mode (clean error, torn
// short write, simulated crash with no cleanup), the save must fail
// loudly AND the previous checkpoint at the path must remain loadable,
// byte-for-byte. No fault point may ever leave bytes at the path that
// Load accepts as a hybrid of old and new state.
func TestSaveFileCrashMatrix(t *testing.T) {
	pA := trainedPredictor(t, 40)
	jobs := testJobs(60)
	pB := trainedPredictor(t, 40)
	if _, err := pB.Train(jobs[40:]); err != nil { // pB diverges from pA
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := pA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Counting pass: discover every fault point a successful save hits,
	// and capture the bytes a completed save of pB produces.
	counter := &fault.Injector{}
	pB.SetFS(fault.NewInjectFS(fault.OS{}, counter))
	if err := pB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	next, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(next, prev) {
		t.Fatal("checkpoints A and B serialize identically; matrix cannot distinguish old from new")
	}
	counts := counter.Counts()
	if counts[fault.OpWrite] < 2 || counts[fault.OpRename] != 1 || counts[fault.OpSync] != 1 {
		t.Fatalf("unexpected fault-point census: %v", counts)
	}

	matrix := fault.Points(counts, fault.ModeError, fault.ModeCrash, fault.ModeShortWrite)
	if len(matrix) < 10 {
		t.Fatalf("crash matrix has only %d points: %v", len(matrix), matrix)
	}
	for _, f := range matrix {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			// Reset on-disk state: previous checkpoint in place, no
			// stranded temp from a prior crash case.
			if err := os.WriteFile(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			_ = os.Remove(path + ".tmp")

			if f.Mode == fault.ModeShortWrite {
				f.Keep = 7 // tear the write partway
			}
			inj := fault.NewInjector(f)
			pB.SetFS(fault.NewInjectFS(fault.OS{}, inj))
			err := pB.SaveFile(path)
			if err == nil {
				t.Fatalf("save with fault %v reported success", f)
			}
			if f.Mode == fault.ModeCrash && !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("crash fault surfaced as %v", err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("checkpoint gone after failed save: %v", rerr)
			}
			// Atomicity: the file is either the untouched previous
			// checkpoint (fault hit before the rename committed) or the
			// complete new one (only the post-rename directory sync
			// failed) — never a hybrid or a torn prefix.
			switch {
			case f.Op == fault.OpSyncDir:
				if !bytes.Equal(got, next) {
					t.Fatalf("fault %v: rename committed but file is not the complete new checkpoint", f)
				}
			case !bytes.Equal(got, prev):
				t.Fatalf("fault %v altered the previous checkpoint bytes", f)
			}
			if _, lerr := LoadFile(path); lerr != nil {
				t.Fatalf("checkpoint unloadable after fault %v: %v", f, lerr)
			}
		})
	}
}

// TestLoadTypedErrors pins the typed-error contract: truncations report
// ErrTruncated, damaged bytes report ErrCorrupt, and neither ever
// yields a predictor — nor, in the exhaustive sweeps, a LoadInference
// view.
func TestLoadTypedErrors(t *testing.T) {
	p := trainedPredictor(t, 40)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("truncated-header", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(full[:20])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(full[:len(full)/2])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[0] ^= 0xff
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[7] = 99
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[len(b)-1] ^= 0x01
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		b := append(append([]byte(nil), full...), 'x', 'y')
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("intact", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(full)); err != nil {
			t.Fatalf("pristine bytes rejected: %v", err)
		}
	})
	t.Run("version-1", func(t *testing.T) {
		// The retired gob-in-gob format has no reader: refused at the
		// header, from the header alone.
		b := append([]byte(nil), full[:frameHeaderLen]...)
		b[7] = 1
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("meta-length-over-cap", func(t *testing.T) {
		b := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(b[8:16], maxMetaLen+1)
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	// The sweeps: wherever the stream is cut it is ErrTruncated, and a
	// flipped bit is ErrCorrupt whichever section it lands in (header,
	// meta, a record length, tensor bytes, an optimizer flag, the
	// trailer); neither ever yields a predictor. One Load per byte needs
	// a checkpoint of kilobytes, not TinyConfig's megabytes: the same
	// config narrowed to 4×4 scripts, one filter per conv and two classes
	// per head keeps every section kind (word2vec meta, three heads, Adam
	// records).
	cfg := p.Config
	cfg.Rows, cfg.Cols, cfg.Width, cfg.RuntimeClasses, cfg.IOClasses = 4, 4, 0.03, 2, 2
	jobs := testJobs(40)
	small, err := New(cfg, []string{jobs[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Train(jobs); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := small.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sweep := append([]byte(nil), buf.Bytes()...)
	// Both readers of a v3 frame go through the sweeps: Load, and the
	// weights-only LoadInference, which skips the Adam records it checks.
	// The sweeps run on one goroutine, so the race detector finds nothing
	// in them; under it, where each load is an order of magnitude slower,
	// only Load sweeps.
	type reader struct {
		name string
		load func([]byte) (bool, error) // whether a model came back
	}
	readers := []reader{{"Load", func(b []byte) (bool, error) {
		p, err := Load(bytes.NewReader(b))
		return p != nil, err
	}}}
	if !raceEnabled {
		readers = append(readers, reader{"LoadInference", func(b []byte) (bool, error) {
			v, _, err := LoadInference(bytes.NewReader(b))
			return v != nil, err
		}})
	}
	for _, r := range readers {
		if _, err := r.load(sweep); err != nil {
			t.Fatalf("%s: pristine sweep bytes rejected: %v", r.name, err)
		}
	}
	t.Run("every-prefix", func(t *testing.T) {
		for _, r := range readers {
			for n := 0; n < len(sweep); n++ {
				if got, err := r.load(sweep[:n]); !errors.Is(err, ErrTruncated) || got {
					t.Fatalf("%s: prefix of %d/%d bytes: model %v, err %v; want none and ErrTruncated", r.name, n, len(sweep), got, err)
				}
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every byte of the small frame, so every length, flag and
		// checksum byte is hit; a stride through the TinyConfig one.
		for _, r := range readers {
			for stride, b := range map[int][]byte{1: sweep, 9973: append([]byte(nil), full...)} {
				for at := 0; at < len(b); at += stride {
					b[at] ^= 1 << (at % 8)
					got, err := r.load(b)
					// A meta length that grew but still fits the cap makes the
					// file look short: the one field where damage cannot be
					// told from truncation.
					inMetaLen := at >= 8 && at < 16 && errors.Is(err, ErrTruncated)
					if got || !(errors.Is(err, ErrCorrupt) || inMetaLen) {
						t.Fatalf("%s: bit flipped at %d/%d: model %v, err %v; want none and ErrCorrupt", r.name, at, len(b), got, err)
					}
					b[at] ^= 1 << (at % 8)
				}
			}
		}
	})
}

// TestQuantizedLoadTypedErrors is TestLoadTypedErrors' sweep for the v4
// frame of a quantized snapshot: cut at any byte it is ErrTruncated, a
// bit flipped in any byte is ErrCorrupt, and neither yields a snapshot.
func TestQuantizedLoadTypedErrors(t *testing.T) {
	cfg := TinyConfig()
	cfg.Rows, cfg.Cols, cfg.Width, cfg.RuntimeClasses, cfg.IOClasses = 4, 4, 0.03, 2, 2
	jobs := testJobs(60)
	p, err := New(cfg, []string{jobs[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:40]); err != nil {
		t.Fatal(err)
	}
	q, err := p.SnapshotQuantized(jobs[40:])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.SaveQuantized(&buf); err != nil {
		t.Fatal(err)
	}
	sweep := buf.Bytes()
	if _, err := LoadQuantized(bytes.NewReader(sweep)); err != nil {
		t.Fatalf("pristine sweep bytes rejected: %v", err)
	}
	for n := 0; n < len(sweep); n++ {
		if v, err := LoadQuantized(bytes.NewReader(sweep[:n])); !errors.Is(err, ErrTruncated) || v != nil {
			t.Fatalf("prefix of %d/%d bytes: snapshot %v, err %v; want none and ErrTruncated", n, len(sweep), v != nil, err)
		}
	}
	for at := range sweep {
		sweep[at] ^= 1 << (at % 8)
		v, err := LoadQuantized(bytes.NewReader(sweep))
		// As in TestLoadTypedErrors: a meta length that grew but still
		// fits the cap makes the file look short.
		inMetaLen := at >= 8 && at < 16 && errors.Is(err, ErrTruncated)
		if v != nil || !(errors.Is(err, ErrCorrupt) || inMetaLen) {
			t.Fatalf("bit flipped at %d/%d: snapshot %v, err %v; want none and ErrCorrupt", at, len(sweep), v != nil, err)
		}
		sweep[at] ^= 1 << (at % 8)
	}
}

// TestTrainCtxCancellation asserts a canceled context stops a training
// event promptly and surfaces context.Canceled.
func TestTrainCtxCancellation(t *testing.T) {
	jobs := testJobs(40)
	cfg := TinyConfig()
	cfg.Epochs = 4
	scripts := []string{jobs[0].Script}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.TrainCtx(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if p.Trained() {
		t.Fatal("canceled-before-start event marked the predictor trained")
	}
}

// TestOnlineCtxCancellation asserts the online loop honors cancellation
// between submissions.
func TestOnlineCtxCancellation(t *testing.T) {
	jobs := testJobs(100)
	cfg := TinyConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOnline(ctx, jobs, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
