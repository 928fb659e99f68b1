package prionn

import (
	"fmt"
	"sort"
	"strings"

	"prionn/internal/mapping"
	"prionn/internal/tensor"
)

// Saliency is a per-character attribution map for one prediction: which
// parts of the job script drove the predicted class. Values are
// normalized to [0, 1] per script.
type Saliency struct {
	Rows, Cols int
	// Weights holds one attribution per script cell, row-major.
	Weights []float32
	// Grid is the standardized script the attributions refer to.
	Grid mapping.Grid
}

// ExplainRuntime computes a gradient×input saliency map for the runtime
// head's prediction on one script: the gradient of the predicted class
// logit with respect to the mapped input, summed in magnitude over
// embedding channels. High values mark characters whose perturbation
// would most change the prediction — on PRIONN's workloads these land on
// application names and numeric parameters, the information the paper
// argues manual parsers discard.
func (p *Predictor) ExplainRuntime(script string) Saliency {
	text := script
	grid := mapping.Standardize(text, p.Config.Rows, p.Config.Cols)
	x := p.mapBatch([]string{text})

	// Forward in train mode so every layer keeps what its backward needs,
	// then backpropagate a one-hot gradient at the argmax logit through
	// every layer, the first included: the input gradient is the point.
	for _, l := range p.runtime.Layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
	logits := p.runtime.Forward(x, true)
	class := logits.ArgMaxRow(0)
	dlogits := tensor.New(logits.Shape...)
	dlogits.Set(1, 0, class)

	dy := dlogits
	var dx *tensor.Tensor
	for i := len(p.runtime.Layers) - 1; i >= 0; i-- {
		dy = p.runtime.Layers[i].Backward(dy)
	}
	dx = dy // gradient with respect to the mapped input [1, C, R, Cols]

	cells := p.Config.Rows * p.Config.Cols
	ch := p.transform.Channels()
	weights := make([]float32, cells)
	var maxW float32
	for c := 0; c < ch; c++ {
		for i := 0; i < cells; i++ {
			g := dx.Data[c*cells+i] * x.Data[c*cells+i]
			if g < 0 {
				g = -g
			}
			weights[i] += g
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
	}
	if maxW > 0 {
		inv := 1 / maxW
		for i := range weights {
			weights[i] *= inv
		}
	}
	return Saliency{Rows: p.Config.Rows, Cols: p.Config.Cols, Weights: weights, Grid: grid}
}

// TopCells returns the n highest-attribution cells as (row, col, char,
// weight) records, most salient first.
func (s Saliency) TopCells(n int) []SalientCell {
	cells := make([]SalientCell, 0, len(s.Weights))
	for i, w := range s.Weights {
		if w == 0 {
			continue
		}
		cells = append(cells, SalientCell{
			Row: i / s.Cols, Col: i % s.Cols,
			Char: s.Grid.Chars[i], Weight: w,
		})
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].Weight > cells[b].Weight })
	if n < len(cells) {
		cells = cells[:n]
	}
	return cells
}

// SalientCell is one attributed script character.
type SalientCell struct {
	Row, Col int
	Char     byte
	Weight   float32
}

// Render prints the script with salient characters highlighted: cells in
// the top-weight decile are wrapped in brackets. Useful for terminal
// inspection of what the model reads.
func (s Saliency) Render() string {
	var b strings.Builder
	for r := 0; r < s.Rows; r++ {
		line := make([]byte, 0, s.Cols+16)
		blank := true
		for c := 0; c < s.Cols; c++ {
			i := r*s.Cols + c
			ch := s.Grid.Chars[i]
			if ch != ' ' {
				blank = false
			}
			if s.Weights[i] > 0.5 {
				line = append(line, '[', ch, ']')
			} else {
				line = append(line, ch)
			}
		}
		if blank {
			continue
		}
		fmt.Fprintf(&b, "%s\n", strings.TrimRight(string(line), " "))
	}
	return b.String()
}
