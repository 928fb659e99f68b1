// Package nn is a small neural-network framework built on package tensor.
// It provides the three deep-learning architectures evaluated by PRIONN —
// a fully connected network (NN), a 1D convolutional network (1D-CNN), and
// a 2D convolutional network (2D-CNN) — as compositions of layers with
// exact backpropagation, an Adam optimizer, raw-tensor snapshots, and the
// warm-start retraining behaviour the paper's online loop depends on
// (models are retrained, not re-initialized, so knowledge persists across
// training events).
package nn

import "prionn/internal/tensor"

// Layer is one differentiable stage of a Sequential model.
//
// A train-mode Forward consumes the batch produced by the previous layer
// and caches whatever it needs for Backward. Backward consumes the
// gradient of the loss with respect to the layer's output, accumulates
// gradients into the tensors returned by Grads, and returns the gradient
// with respect to its input. A train-mode Forward/Backward pair must not
// be interleaved with another pair on the same layer.
//
// An inference Forward (train=false) is read-only on the layer: it writes
// no field, so any number of goroutines may run inference forwards over
// one layer at once (while nothing trains it), and one may fall between a train-mode Forward and
// its Backward without disturbing the gradients
// (TestInferenceForwardLeavesBackwardAlone pins this).
type Layer interface {
	// Forward runs the layer on a batch. train selects the train-time
	// behaviour: dropout, and caching for Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the upstream gradient and returns the gradient
	// with respect to the layer input.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient accumulators matching Params. It is
	// part of training: Conv2D and Dense allocate theirs on the first
	// call (or the first Backward), so a layer that only infers holds
	// none, and Grads must not run beside anything else on the layer.
	Grads() []*tensor.Tensor
	// Name identifies the layer kind for diagnostics and snapshots.
	Name() string
}

// paramLayer is a layer with parameters whose backward can skip the
// gradient with respect to its input: the first such layer of a stack
// has no use for it (see Sequential.Backward).
type paramLayer interface {
	backward(dy *tensor.Tensor, wantDx bool) *tensor.Tensor
}

// releaser is a layer holding train-time state: buffers checked out of
// the arena, gradient accumulators, references to other layers' buffers.
// release returns the buffers and forgets the rest; the next train-mode
// Forward and grads call rebuild them.
type releaser interface{ release() }
