package prionn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"prionn/internal/nn"
)

// FuzzLoadPredictor throws arbitrary bytes — seeded with a valid saved
// predictor and cuts and bit-flips of it at every section of the frame —
// at Load. The contract under test: Load never panics and never returns
// a predictor from damaged input; every rejection is an error and no
// predictor. What Load does accept must be a fixed point of the codec:
// saved again and loaded again it is the same predictor, bit for bit.
// LoadInference accepts and rejects the same inputs.
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
	flip := func(at int) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x40
		return b
	}
	// Section boundaries of the frame: header | meta | body | trailer.
	metaEnd := frameHeaderLen + int(binary.LittleEndian.Uint64(valid[8:16]))
	bodyEnd := len(valid) - sha256.Size

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:frameHeaderLen]) // header only
	f.Add(valid[:metaEnd])        // header and meta only
	for _, edge := range []int{frameHeaderLen, metaEnd, bodyEnd, len(valid)} {
		f.Add(valid[:edge-1])
		if edge < len(valid) {
			f.Add(valid[:edge+1])
		}
	}
	f.Add(flip(frameHeaderLen + 5)) // in the meta
	f.Add(flip((metaEnd + bodyEnd) / 2))
	f.Add(flip(bodyEnd + 3)) // in the trailer
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	v1 := append([]byte(nil), valid[:frameHeaderLen]...)
	v1[7] = 1
	f.Add(v1) // the retired float32 format's header
	q, err := p.SnapshotQuantized(jobs[:10])
	if err != nil {
		f.Fatal(err)
	}
	var qbuf bytes.Buffer
	if err := q.SaveQuantized(&qbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(qbuf.Bytes()) // a v4 frame: the quantized loader's
	f.Add(bytes.Repeat([]byte{0xff}, 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		// The weights-only reader walks the same frame and checks the
		// same counts: it accepts exactly what Load accepts.
		v, _, verr := LoadInference(bytes.NewReader(data))
		if (v != nil) != (verr == nil) || (verr == nil) != (err == nil) {
			t.Fatalf("LoadInference: view %v, err %v; Load: err %v", v != nil, verr, err)
		}
		if err != nil {
			if p != nil {
				t.Fatal("Load returned both a predictor and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("Load returned neither a predictor nor an error")
		}
		var again bytes.Buffer
		if err := p.Save(&again); err != nil {
			t.Fatalf("saving what Load accepted: %v", err)
		}
		p2, err := Load(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects what Save wrote for an accepted predictor: %v", err)
		}
		requireSameState(t, p, p2)
	})
}

// FuzzQuantizedLoad is FuzzLoadPredictor's twin for the quantized
// snapshot's v4 frame: LoadQuantized never panics and never returns a
// snapshot from damaged input, rejecting with typed errors; what it
// accepts serves, and saved again and loaded again predicts the same.
// The seeds include a valid float32 predictor frame and a version-2
// header, which the quantized loader must refuse at the version byte,
// and a well-framed snapshot whose first scale is negative.
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
	v2 := append([]byte(nil), valid[:frameHeaderLen]...)
	v2[7] = 2
	f.Add(v2) // the retired gob-payload format's header
	bad := *q
	bad.int8 = append([][]nn.Int8Weights(nil), q.int8...)
	bad.int8[0] = append([]nn.Int8Weights(nil), q.int8[0]...)
	bad.int8[0][0].Scales = append([]float32{-1}, q.int8[0][0].Scales[1:]...)
	var badBuf bytes.Buffer
	if err := bad.SaveQuantized(&badBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(badBuf.Bytes()) // well-framed, a negative scale

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
		// Whatever loads must also serve, and survive its own codec.
		want := v.PredictOne(jobs[0].Script)
		var again bytes.Buffer
		if err := v.SaveQuantized(&again); err != nil {
			t.Fatalf("saving what LoadQuantized accepted: %v", err)
		}
		v2, err := LoadQuantized(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("LoadQuantized rejects what SaveQuantized wrote for an accepted snapshot: %v", err)
		}
		if got := v2.PredictOne(jobs[0].Script); got != want {
			t.Fatalf("reloaded snapshot predicts %+v, the accepted one %+v", got, want)
		}
	})
}
