package prionn

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoadPredictor throws arbitrary bytes — seeded with a valid saved
// predictor plus truncations and bit-flips of it — at Load. The
// contract under test: Load never panics and never returns a predictor
// from damaged input; every rejection is a typed ErrTruncated/ErrCorrupt
// (or a plain error for well-framed payloads whose gob content is
// semantically invalid).
func FuzzLoadPredictor(f *testing.F) {
	jobs := testJobs(30)
	cfg := TinyConfig()
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := p.Train(jobs); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:frameHeaderLen])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	f.Add(bytes.Repeat([]byte{0xff}, 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatal("Load returned both a predictor and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("Load returned neither a predictor nor an error")
		}
		// Anything Load accepts must be well-framed: re-reading the
		// frame cannot report damage.
		if _, ferr := readFrame(bytes.NewReader(data)); errors.Is(ferr, ErrTruncated) || errors.Is(ferr, ErrCorrupt) {
			t.Fatalf("Load accepted bytes the frame layer rejects: %v", ferr)
		}
	})
}

// FuzzQuantizedLoad is FuzzLoadPredictor's twin for the quantized
// snapshot frame: LoadQuantized never panics and never returns a
// snapshot from damaged input, rejecting with typed errors. The seeds
// include a valid float32 predictor frame, which the quantized loader
// must refuse at the version byte.
func FuzzQuantizedLoad(f *testing.F) {
	jobs := testJobs(30)
	cfg := TinyConfig()
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := p.Train(jobs); err != nil {
		f.Fatal(err)
	}
	q, err := p.SnapshotQuantized(jobs[:10])
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.SaveQuantized(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	var fbuf bytes.Buffer
	if err := p.Save(&fbuf); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:frameHeaderLen])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	f.Add(fbuf.Bytes()) // a float32 frame: wrong version byte
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	f.Add(rewriteQuantized(f, valid, enlargeFirstConv)) // well-framed, ops that do not chain

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := LoadQuantized(bytes.NewReader(data))
		if err != nil {
			if v != nil {
				t.Fatal("LoadQuantized returned both a snapshot and an error")
			}
			return
		}
		if v == nil {
			t.Fatal("LoadQuantized returned neither a snapshot nor an error")
		}
		if v.Kernel() != KernelInt8 {
			t.Fatalf("accepted snapshot has kernel %q", v.Kernel())
		}
		// Whatever loads must also serve: the forward trusts the loaded
		// geometry.
		v.PredictOne(jobs[0].Script)
		if _, ferr := readFrameV(bytes.NewReader(data), frameVersionQuant); errors.Is(ferr, ErrTruncated) || errors.Is(ferr, ErrCorrupt) {
			t.Fatalf("LoadQuantized accepted bytes the frame layer rejects: %v", ferr)
		}
	})
}
