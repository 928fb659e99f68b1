package prionn

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"io"
	"path/filepath"

	"prionn/internal/fault"
)

// Checkpoint framing. Every persisted artifact is one frame, written
// through atomicWrite and streamed — written and read section by
// section through one buffer, never held whole in memory:
//
//	offset  size  field
//	     0     8  magic "PRIONN\x00" + format version byte
//	     8     8  length M of the meta, little-endian uint64 (at most
//	              maxMetaLen)
//	    16    32  SHA-256 of the meta
//	    48     M  meta: a gob of the version's meta struct
//	  48+M     …  body: per head, in Predictor.heads order, its records
//	   end    32  SHA-256 of every byte before it
//
// The version byte names the schema, so a float32 predictor checkpoint
// and a quantized snapshot can never be confused for one another:
// loading either through the other's loader fails with ErrCorrupt at
// the header, before anything is decoded.
//
// Version 3, the float32 predictor checkpoint: checkpointMeta (config,
// embedding, trained, events); per head its parameters
// (nn.Sequential.Save), an optimizer flag byte, and when that is 1 its
// Adam state (nn.Adam.SaveState).
//
// Version 4, the quantized snapshot: quantMeta (config, embedding,
// trained); per head its Conv2D and Dense layers' int8 codes, scales and
// float32 biases (nn.Sequential.SaveInt8).
//
// The meta has its own checksum because it decides what is built: it is
// verified before it is decoded and before a model is sized from its
// config. The body is read straight into that model and vouched for by
// the trailer, which can only trail — a writer that streams does not
// know the body's hash until it has written it. A loader checks the
// trailer, and that nothing follows it, before it returns anything.
//
// Version 1, the float32 checkpoint's former gob-in-gob layout, and
// version 2, the quantized snapshot's former gob payload, have no
// reader: such a file fails at the version byte.
//
// The frame turns every partial-failure mode a crash can produce — a
// truncated file, a torn write, stray bytes — into a typed load error
// instead of a silently wrong model. Combined with atomicWrite, a
// reader observes either the previous complete checkpoint or the new
// complete checkpoint, never a hybrid.
const (
	// frameVersion is the float32 predictor checkpoint format.
	frameVersion = 3
	// frameVersionQuant is the quantized snapshot format.
	frameVersionQuant = 4
)

var frameMagic = [7]byte{'P', 'R', 'I', 'O', 'N', 'N', 0}

const (
	frameHeaderLen = 8 + 8 + sha256.Size
	// maxMetaLen bounds the one allocation a reader sizes from the file.
	// A meta holds a config and a 128-character embedding: a few
	// kilobytes.
	maxMetaLen = 1 << 20
	// frameBufLen is the buffer a frame is written and read through.
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

// writeFrame streams a frame of the given version to w: the header and
// meta, gob-encoded, then what body writes, through one buffered writer
// that feeds w and the trailing checksum together, then the trailer.
func writeFrame(w io.Writer, version byte, meta any, body func(*bufio.Writer) error) error {
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(meta); err != nil {
		return err
	}
	if mb.Len() > maxMetaLen {
		return fmt.Errorf("prionn: checkpoint meta is %d bytes, over the format's %d", mb.Len(), maxMetaLen)
	}
	var hdr [frameHeaderLen]byte
	copy(hdr[:], frameMagic[:])
	hdr[7] = version
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(mb.Len()))
	metaSum := sha256.Sum256(mb.Bytes())
	copy(hdr[16:], metaSum[:])
	sum := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), frameBufLen)
	_, _ = bw.Write(hdr[:]) // a bufio.Writer's error sticks: Flush returns it
	_, _ = bw.Write(mb.Bytes())
	if err := body(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(sum.Sum(nil))
	return err
}

// openFrame reads the header and meta of a frame that must have the
// given version, decodes the meta into meta, and returns the reader the
// body is read through. The header is checked field by field before the
// one allocation sized from it, and the meta against its checksum before
// it is decoded.
func openFrame(r io.Reader, version byte, meta any) (*frameReader, error) {
	fr := newFrameReader(r)
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr, hdr[:]); err != nil {
		return nil, fr.fail("header", err)
	}
	if !bytes.Equal(hdr[:7], frameMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if hdr[7] != version {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, hdr[7], version)
	}
	metaLen := binary.LittleEndian.Uint64(hdr[8:16])
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("%w: meta length %d over %d", ErrCorrupt, metaLen, maxMetaLen)
	}
	mb := make([]byte, metaLen)
	if _, err := io.ReadFull(fr, mb); err != nil {
		return nil, fr.fail("meta", err)
	}
	if metaSum := sha256.Sum256(mb); !bytes.Equal(metaSum[:], hdr[16:]) {
		return nil, fmt.Errorf("%w: meta checksum mismatch", ErrCorrupt)
	}
	if err := gob.NewDecoder(bytes.NewReader(mb)).Decode(meta); err != nil {
		return nil, fmt.Errorf("%w: decoding meta: %v", ErrCorrupt, err)
	}
	return fr, nil
}

// frameReader reads a frame. Everything read through it feeds the
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

// close ends the frame: one read takes the trailer and probes for a byte
// past it.
func (f *frameReader) close() error {
	want := f.sum.Sum(nil)
	var trailer [sha256.Size + 1]byte
	switch n, err := io.ReadFull(f, trailer[:]); {
	case n < sha256.Size:
		return f.fail("trailing checksum", err)
	case !bytes.Equal(trailer[:sha256.Size], want):
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	case n > sha256.Size:
		return fmt.Errorf("%w: bytes past the trailing checksum", ErrCorrupt)
	case err != io.ErrUnexpectedEOF:
		return f.fail("end of frame", err)
	}
	return nil
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
