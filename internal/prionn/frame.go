package prionn

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"path/filepath"

	"prionn/internal/fault"
)

// Checkpoint framing. Every persisted artifact starts with the same
// 48-byte header and is written through atomicWrite:
//
//	offset  size  field
//	     0     8  magic "PRIONN\x00" + format version byte
//	     8     8  length of the section that follows, little-endian uint64
//	    16    32  SHA-256 of that section
//
// The version byte names the schema, so a float32 predictor checkpoint
// and a quantized snapshot can never be confused for one another:
// loading either through the other's loader fails with ErrCorrupt at
// the header, before anything is decoded.
//
// Version 2, the quantized snapshot, is the header and one gob payload.
//
// Version 3, the float32 predictor checkpoint (a full model save, or a
// mid-event training checkpoint, which differs only in its meta), is
// streamed — written and read section by section through one buffer,
// never held whole in memory:
//
//	   0    48  header, of the meta (at most maxMetaLen bytes)
//	  48     M  meta: gob of checkpointMeta (config, embedding, trained,
//	            events, resume position of a mid-event checkpoint)
//	48+M     …  per head, in Predictor.heads order: its parameters
//	            (nn.Sequential.Save), an optimizer flag byte, and when
//	            that is 1 its Adam state (nn.Adam.SaveState)
//	 end    32  SHA-256 of every byte before it
//
// The meta has its own checksum because it decides what is built: it is
// verified before it is decoded and before a model is sized from its
// config. The tensor body is read straight into that model and vouched
// for by the trailer, which can only trail — a writer that streams does
// not know the body's hash until it has written it. Load checks the
// trailer, and that nothing follows it, before it returns a predictor.
//
// Version 1, the float32 checkpoint's former gob-in-gob layout, has no
// reader: such a file fails at the version byte.
//
// The frame turns every partial-failure mode a crash can produce — a
// truncated file, a torn write, stray bytes — into a typed load error
// instead of a silently wrong model. Combined with atomicWrite, a
// reader observes either the previous complete checkpoint or the new
// complete checkpoint, never a hybrid.
const (
	// frameVersionQuant is the int8 quantized snapshot format.
	frameVersionQuant = 2
	// frameVersion is the float32 predictor checkpoint format.
	frameVersion = 3
)

var frameMagic = [7]byte{'P', 'R', 'I', 'O', 'N', 'N', 0}

const (
	frameHeaderLen = 8 + 8 + sha256.Size
	// maxMetaLen bounds the one allocation a v3 reader sizes from the
	// file. A meta holds a config and a 128-character embedding: a few
	// kilobytes.
	maxMetaLen = 1 << 20
	// frameBufLen is the buffer a v3 frame is written and read through.
	frameBufLen = 64 << 10
)

// Typed load errors. Callers distinguish "the file is short" (a crash
// landed mid-write; retry with the previous checkpoint) from "the bytes
// are wrong" (corruption; the file must be discarded) with errors.Is.
var (
	// ErrTruncated reports a checkpoint cut short: the input ends before
	// the frame does.
	ErrTruncated = errors.New("prionn: truncated checkpoint")
	// ErrCorrupt reports checkpoint bytes that are present but wrong:
	// bad magic, unknown version, checksum mismatch, a length that does
	// not fit the model, an undecodable payload, or bytes past the end.
	ErrCorrupt = errors.New("prionn: corrupt checkpoint")
)

// writeFrameV writes the header (with the given format version byte)
// and payload to w: a whole v2 frame, or the head of a v3 one.
func writeFrameV(w io.Writer, version byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	copy(hdr[:], frameMagic[:])
	hdr[7] = version
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameV consumes r and returns the verified payload, requiring the
// frame's version byte to match the expected payload schema.
func readFrameV(r io.Reader, version byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return nil, err
	}
	if !bytes.Equal(hdr[:7], frameMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if hdr[7] != version {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, hdr[7], version)
	}
	declared := binary.LittleEndian.Uint64(hdr[8:16])
	// Read what is actually there rather than allocating the declared
	// length: a corrupt header must not be able to demand gigabytes.
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) < declared {
		return nil, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, len(payload), declared)
	}
	if uint64(len(payload)) > declared {
		return nil, fmt.Errorf("%w: %d bytes past declared payload", ErrCorrupt, uint64(len(payload))-declared)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], hdr[16:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// frameReader reads a v3 frame. Everything read through it feeds the
// running checksum the trailer is compared with; a read failure that is
// not the end of the input is kept, so that fail reports it as itself
// and not as damage to the file.
type frameReader struct {
	br  *bufio.Reader
	sum hash.Hash
	err error
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameBufLen), sum: sha256.New()}
}

func (f *frameReader) Read(p []byte) (int, error) {
	n, err := f.br.Read(p)
	_, _ = f.sum.Write(p[:n]) // a hash.Hash never returns an error
	if err != nil && err != io.EOF {
		f.err = err
	}
	return n, err
}

// fail types the error err that reading section what of the frame ended
// with: input that ran out is ErrTruncated, anything else the bytes
// caused is ErrCorrupt.
func (f *frameReader) fail(what string, err error) error {
	switch {
	case f.err != nil:
		return f.err
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: input ends in the %s", ErrTruncated, what)
	}
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
}

// atomicWrite persists what write produces at path through the
// injectable file-op layer: write to a temp file in the same directory,
// fsync, close, rename over path, fsync the directory. A failure at any
// step leaves the previous contents of path untouched; the temp file is
// removed best-effort (a simulated crash skips even that, as a real
// crash would).
func atomicWrite(fsys fault.FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func() { _ = fsys.Remove(tmp) } // best-effort; path is still intact
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		cleanup()
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		cleanup()
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
