// Package mapping implements PRIONN's novel job-script data mapping: the
// text of a whole job script is converted into an image-like matrix of
// pixels, one pixel (or pixel vector) per character, suitable for input
// into deep learning models (paper §2.1, §2.4).
//
// Scripts are first standardized to a fixed Rows×Cols character grid —
// longer scripts are cropped, shorter ones padded with spaces — and then
// each character is transformed to numerical channels by one of four
// transformations: binary, simple, one-hot, or word2vec.
package mapping

import (
	"strings"

	"prionn/internal/tensor"
	"prionn/internal/word2vec"
)

// Grid is a standardized Rows×Cols block of script characters.
type Grid struct {
	Rows, Cols int
	Chars      []byte // row-major, len == Rows*Cols
}

// Standardize crops/pads script text to a rows×cols character grid.
// Lines beyond rows and characters beyond cols are cropped; missing
// cells are padded with spaces. Tabs are preserved as characters (the
// binary transform distinguishes whitespace from code).
//
// Line endings are normalized before gridding: CRLF ("\r\n") and lone
// CR ("\r", classic-Mac files) both terminate a line exactly like LF,
// so byte-identical scripts authored on Windows, Unix, or old Mac
// tooling standardize to the same grid. Without this, a CRLF script
// kept a trailing '\r' on every line, which Binary mapped to pixel 1
// and Simple/OneHot mapped to a distinct channel — different pixel
// images for the same script text.
func Standardize(script string, rows, cols int) Grid {
	g := Grid{Rows: rows, Cols: cols, Chars: make([]byte, rows*cols)}
	for i := range g.Chars {
		g.Chars[i] = ' '
	}
	if strings.ContainsRune(script, '\r') {
		script = strings.ReplaceAll(script, "\r\n", "\n")
		script = strings.ReplaceAll(script, "\r", "\n")
	}
	lines := strings.Split(script, "\n")
	for r := 0; r < rows && r < len(lines); r++ {
		line := lines[r]
		for c := 0; c < cols && c < len(line); c++ {
			g.Chars[r*cols+c] = line[c]
		}
	}
	return g
}

// Transform converts a standardized character grid into pixel channels.
// Apply writes into dst.Data laid out [Channels, Rows, Cols] (row-major),
// the natural input layout for a 2D CNN; flattening the same buffer to
// [Channels, Rows*Cols] yields the 1D-sequence layout, in which all lines
// of text are concatenated into a single line (paper §2.1).
type Transform interface {
	// Name is the paper's name for the transformation.
	Name() string
	// Channels is the per-character vector width (1, 128, or the
	// embedding dimension).
	Channels() int
	// Apply fills dst (len == Channels()*len(g.Chars)) from the grid.
	Apply(g Grid, dst []float32)
}

// Binary is the lossy transformation: space characters (space, tab) map
// to 0 and all other characters map to 1.
type Binary struct{}

// Name implements Transform.
func (Binary) Name() string { return "binary" }

// Channels implements Transform.
func (Binary) Channels() int { return 1 }

// Apply implements Transform.
func (Binary) Apply(g Grid, dst []float32) {
	for i, c := range g.Chars {
		if c == ' ' || c == '\t' {
			dst[i] = 0
		} else {
			dst[i] = 1
		}
	}
}

// Simple is the lossless scalar transformation: each ASCII character maps
// to a unique value, normalized to [0, 1].
type Simple struct{}

// Name implements Transform.
func (Simple) Name() string { return "simple" }

// Channels implements Transform.
func (Simple) Channels() int { return 1 }

// Apply implements Transform.
func (Simple) Apply(g Grid, dst []float32) {
	const inv = 1.0 / 127.0
	for i, c := range g.Chars {
		if c > 127 {
			c = 127
		}
		dst[i] = float32(c) * inv
	}
}

// OneHot is the lossless transformation mapping each character to a
// 128-element indicator vector.
type OneHot struct{}

// Name implements Transform.
func (OneHot) Name() string { return "one-hot" }

// Channels implements Transform.
func (OneHot) Channels() int { return 128 }

// Apply implements Transform.
func (OneHot) Apply(g Grid, dst []float32) {
	n := len(g.Chars)
	clear(dst)
	for i, c := range g.Chars {
		if c > 127 {
			c = 127
		}
		// Channel-major layout: dst[channel*n + position].
		dst[int(c)*n+i] = 1
	}
}

// Word2Vec is the lossless transformation mapping each character to its
// trained embedding vector (paper: output size 4).
type Word2Vec struct {
	Emb *word2vec.Embedding
}

// Name implements Transform.
func (Word2Vec) Name() string { return "word2vec" }

// Channels implements Transform.
func (t Word2Vec) Channels() int { return t.Emb.Dim }

// Apply implements Transform.
func (t Word2Vec) Apply(g Grid, dst []float32) {
	n := len(g.Chars)
	for i, c := range g.Chars {
		v := t.Emb.Vector(c)
		for d := 0; d < t.Emb.Dim; d++ {
			dst[d*n+i] = v[d]
		}
	}
}

// MapScript standardizes one script and applies the transform, returning
// a [Channels, Rows, Cols] tensor.
func MapScript(script string, tr Transform, rows, cols int) *tensor.Tensor {
	g := Standardize(script, rows, cols)
	out := tensor.New(tr.Channels(), rows, cols)
	tr.Apply(g, out.Data)
	return out
}

// MapBatch concurrently transforms a batch of scripts into a stacked
// [N, Channels, Rows, Cols] tensor. This is the "concurrently maps the
// text of each job script" step of the PRIONN workflow; scripts are
// distributed across the tensor worker pool.
func MapBatch(scripts []string, tr Transform, rows, cols int) *tensor.Tensor {
	n := len(scripts)
	ch := tr.Channels()
	out := tensor.New(n, ch, rows, cols)
	sample := ch * rows * cols
	tensor.For(n, 64, tensor.Func(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := Standardize(scripts[i], rows, cols)
			tr.Apply(g, out.Data[i*sample:(i+1)*sample])
		}
	}))
	return out
}

// All returns the four paper transformations. The word2vec entry requires
// a trained embedding; pass nil to omit it.
func All(emb *word2vec.Embedding) []Transform {
	ts := []Transform{Binary{}, Simple{}, OneHot{}}
	if emb != nil {
		ts = append(ts, Word2Vec{Emb: emb})
	}
	return ts
}
