package nn

import "prionn/internal/tensor"

// block is one step of the layer grammar the three PRIONN architectures
// are written in: a Conv2D or Dense with the ReLU that follows it, a
// Conv2D block also with the MaxPool2D that follows that, or any other
// single layer. It is the unit the inference forward runs as one fused
// pass and the unit Quantize turns into one quantized op (plus a pool
// op), so both cut a stack with nextBlock and cannot disagree on where
// a ReLU belongs.
type block struct {
	layer Layer
	relu  *ReLU      // follows layer; only after a *Conv2D or *Dense
	pool  *MaxPool2D // follows layer (and relu); only after a *Conv2D whose output it fits
}

// nextBlock returns the block starting at layers[i] and the index of
// the layer after it.
func nextBlock(layers []Layer, i int) (block, int) {
	b := block{layer: layers[i]}
	i++
	conv, isConv := b.layer.(*Conv2D)
	if _, isDense := b.layer.(*Dense); !isConv && !isDense {
		return b, i
	}
	if i < len(layers) {
		if r, ok := layers[i].(*ReLU); ok {
			b.relu = r
			i++
		}
	}
	if isConv && i < len(layers) {
		if p, ok := layers[i].(*MaxPool2D); ok {
			oh, ow := conv.OutDims()
			if p.InC == conv.Filters && p.InH == oh && p.InW == ow {
				b.pool = p
				i++
			}
		}
	}
	return b, i
}

// infer runs the block's inference forward: conv and dense blocks as
// one fused pass whose output is an arena check-out (checkedOut),
// anything else through the layer's own Forward.
func (b block) infer(x *tensor.Tensor) (y *tensor.Tensor, checkedOut bool) {
	switch l := b.layer.(type) {
	case *Conv2D:
		return l.infer(x, b.relu != nil, b.pool), true
	case *Dense:
		return l.infer(x, b.relu != nil), true
	}
	return b.layer.Forward(x, false), false
}
