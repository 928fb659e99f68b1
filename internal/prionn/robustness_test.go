package prionn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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
// yields a predictor.
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
	if _, err := Load(bytes.NewReader(sweep)); err != nil {
		t.Fatalf("pristine sweep bytes rejected: %v", err)
	}
	t.Run("every-prefix", func(t *testing.T) {
		for n := 0; n < len(sweep); n++ {
			if p, err := Load(bytes.NewReader(sweep[:n])); !errors.Is(err, ErrTruncated) || p != nil {
				t.Fatalf("prefix of %d/%d bytes: predictor %v, err %v; want none and ErrTruncated", n, len(sweep), p != nil, err)
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every byte of the small frame, so every length, flag and
		// checksum byte is hit; a stride through the TinyConfig one.
		for stride, b := range map[int][]byte{1: sweep, 9973: append([]byte(nil), full...)} {
			for at := 0; at < len(b); at += stride {
				b[at] ^= 1 << (at % 8)
				p, err := Load(bytes.NewReader(b))
				// A meta length that grew but still fits the cap makes the
				// file look short: the one field where damage cannot be told
				// from truncation.
				inMetaLen := at >= 8 && at < 16 && errors.Is(err, ErrTruncated)
				if p != nil || !(errors.Is(err, ErrCorrupt) || inMetaLen) {
					t.Fatalf("bit flipped at %d/%d: predictor %v, err %v; want none and ErrCorrupt", at, len(b), p != nil, err)
				}
				b[at] ^= 1 << (at % 8)
			}
		}
	})
	// The two kinds of v3 frame are not interchangeable: a mid-event
	// checkpoint holds a half-fitted model, a completed one no position
	// to resume from. Neither refusal is damage, so neither is typed.
	t.Run("cross-refusals", func(t *testing.T) {
		dir := t.TempDir()
		mid := filepath.Join(dir, "mid.ckpt")
		disarm := fault.Arm(FailpointTrainCheckpoint, fault.Failure{})
		_, err := trainedPredictor(t, 40).TrainCheckpointed(context.Background(), jobs, mid)
		disarm()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("interrupted event returned %v", err)
		}
		if p, err := LoadFile(mid); err == nil || p != nil || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
			t.Fatalf("LoadFile on a mid-event checkpoint: predictor %v, err %v; want a plain refusal", p != nil, err)
		}
		if _, _, err := ResumeTrain(context.Background(), mid, jobs); err != nil {
			t.Fatalf("the same file resumes: %v", err)
		}
		done := filepath.Join(dir, "done.ckpt")
		if err := p.SaveFile(done); err != nil {
			t.Fatal(err)
		}
		if p, _, err := ResumeTrain(context.Background(), done, jobs); err == nil || p != nil || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
			t.Fatalf("ResumeTrain on a completed model: predictor %v, err %v; want a plain refusal", p != nil, err)
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

// TestInterruptResumeBitwiseIdentical is the tentpole's training proof:
// interrupting a checkpointed training event at epoch k and resuming
// from the checkpoint yields a saved model byte-identical to the
// uninterrupted same-seed run — parameters, optimizer moments, shuffle
// stream, and event counter all line up.
func TestInterruptResumeBitwiseIdentical(t *testing.T) {
	jobs := testJobs(50)
	cfg := TinyConfig()
	cfg.PredictIO = true
	cfg.Epochs = 2 // ×3 bootstrap ⇒ 6 epochs per head
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	dir := t.TempDir()

	// Uninterrupted reference run.
	ref, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	refLoss, err := ref.TrainCheckpointed(context.Background(), jobs, filepath.Join(dir, "ref.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var refBytes bytes.Buffer
	if err := ref.Save(&refBytes); err != nil {
		t.Fatal(err)
	}

	// Interrupt at several positions across the event: after the k-th
	// epoch checkpoint (k spans head boundaries: 6 epochs per head × 3
	// heads = 18 checkpoints + 1 final).
	for _, k := range []int{0, 2, 5, 7, 12, 17} {
		k := k
		t.Run(fmt.Sprintf("epoch-%d", k), func(t *testing.T) {
			path := filepath.Join(dir, "int.ckpt")
			p, err := New(cfg, scripts)
			if err != nil {
				t.Fatal(err)
			}
			disarm := fault.Arm(FailpointTrainCheckpoint, fault.Failure{After: k})
			_, err = p.TrainCheckpointed(context.Background(), jobs, path)
			disarm()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("interrupt %d: train returned %v, want injected interrupt", k, err)
			}

			resumed, loss, err := ResumeTrain(context.Background(), path, jobs)
			if err != nil {
				t.Fatalf("resume after interrupt %d: %v", k, err)
			}
			if loss != refLoss {
				t.Fatalf("interrupt %d: resumed runtime loss %v != reference %v", k, loss, refLoss)
			}
			var got bytes.Buffer
			if err := resumed.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refBytes.Bytes()) {
				t.Fatalf("interrupt %d: resumed model bytes differ from uninterrupted run", k)
			}
		})
	}
}

// TestResumeCompletedEventIsNoop asserts resuming a checkpoint written
// after its event finished changes nothing — the event counter must not
// advance twice.
func TestResumeCompletedEventIsNoop(t *testing.T) {
	jobs := testJobs(40)
	cfg := TinyConfig()
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "done.ckpt")
	if _, err := p.TrainCheckpointed(context.Background(), jobs, path); err != nil {
		t.Fatal(err)
	}
	resumed, _, err := ResumeTrain(context.Background(), path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Events() != p.Events() {
		t.Fatalf("resume of completed event moved the counter: %d vs %d", resumed.Events(), p.Events())
	}
	var a, b bytes.Buffer
	if err := p.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resume of completed event altered the model")
	}
}

// TestResumeWindowMismatchRejected guards against resuming an event
// over a different job window than it was interrupted on.
func TestResumeWindowMismatchRejected(t *testing.T) {
	jobs := testJobs(40)
	cfg := TinyConfig()
	cfg.Epochs = 1
	scripts := []string{jobs[0].Script}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.ckpt")
	disarm := fault.Arm(FailpointTrainCheckpoint, fault.Failure{})
	_, err = p.TrainCheckpointed(context.Background(), jobs, path)
	disarm()
	if err == nil {
		t.Fatal("expected interrupt")
	}
	if _, _, err := ResumeTrain(context.Background(), path, jobs[:10]); err == nil {
		t.Fatal("resume with a different window accepted")
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

// TestOnlineRetrainCrashRecovery is the satellite's online-loop proof:
// the checkpointed online loop dies mid-save at a later training event,
// and the checkpoint file still holds the previous event's complete,
// loadable model.
func TestOnlineRetrainCrashRecovery(t *testing.T) {
	jobs := testJobs(150)
	cfg := TinyConfig()
	cfg.RetrainEvery = 30
	cfg.TrainWindow = 40
	cfg.Epochs = 1
	path := filepath.Join(t.TempDir(), "online.ckpt")

	// Reference pass: run the loop to completion once to learn how many
	// training events the trace holds.
	if _, err := RunOnlineCheckpointed(context.Background(), jobs, cfg, path, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Events() < 2 {
		t.Fatalf("trace too short: only %d training events", ref.Events())
	}

	// Counting pass: a deployment killed right before its second save has
	// performed exactly the first save's writes, so the next write ordinal
	// is the first write of the second event's save.
	counter := &fault.Injector{}
	killed := errors.New("killed")
	disarm := fault.Arm(FailpointOnlineSave, fault.Failure{Err: killed, After: 1})
	_, err = runOnline(context.Background(), jobs, cfg, filepath.Join(t.TempDir(), "count.ckpt"), fault.NewInjectFS(fault.OS{}, counter), nil)
	disarm()
	if !errors.Is(err, killed) {
		t.Fatalf("counting pass returned %v, want the armed kill", err)
	}
	secondSave := counter.Counts()[fault.OpWrite] + 1

	// Crash pass: a fresh deployment (its own checkpoint path — runOnline
	// now resumes from an existing checkpoint, so reusing the completed
	// reference path would skip every event) whose second event's save
	// dies at its first write (latched crash — no cleanup runs).
	crashPath := filepath.Join(t.TempDir(), "crash.ckpt")
	inj := fault.NewInjector(fault.Fault{Op: fault.OpWrite, Nth: secondSave, Mode: fault.ModeCrash})
	_, err = runOnline(context.Background(), jobs, cfg, crashPath, fault.NewInjectFS(fault.OS{}, inj), nil)
	if !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crashed run returned %v, want ErrCrash", err)
	}
	if len(inj.Fired()) == 0 {
		t.Fatal("crash fault never fired; adjust the write ordinal")
	}

	// Recovery: the file at crashPath is the first event's checkpoint —
	// complete, loadable, and predictive.
	rec, err := LoadFile(crashPath)
	if err != nil {
		t.Fatalf("checkpoint unloadable after mid-save crash: %v", err)
	}
	if !rec.Trained() || rec.Events() != 1 {
		t.Fatalf("recovered model: trained=%v events=%d, want trained after exactly 1 event", rec.Trained(), rec.Events())
	}
	if pred := rec.PredictJob(jobs[0]); pred.RuntimeMin <= 0 {
		t.Fatalf("recovered model predicts nonsense: %+v", pred)
	}
}

// TestOnlineCtxCancellation asserts the online loop honors cancellation
// between submissions.
func TestOnlineCtxCancellation(t *testing.T) {
	jobs := testJobs(100)
	cfg := TinyConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOnlineCtx(ctx, jobs, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
