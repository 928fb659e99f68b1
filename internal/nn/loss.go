package nn

import (
	"math"

	"prionn/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// [N, K] against integer class labels, together with the gradient of the
// loss with respect to the logits (softmax(x) - onehot(y), scaled by 1/N).
//
// PRIONN's heads are classifiers — e.g. the runtime head has one output
// node per minute in [0, 960] — so this is the only loss the models need.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	dlogits = tensor.New(logits.Shape...)
	return softmaxCrossEntropyInto(dlogits, logits, labels), dlogits
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient
// into dlogits, shaped as logits and overwritten.
func softmaxCrossEntropyInto(dlogits, logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic("nn: SoftmaxCrossEntropy requires rank-2 logits")
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	copy(dlogits.Data, logits.Data)
	probs := dlogits.SoftmaxRows() // the gradient is probs with the label entries shifted
	invN := float32(1.0 / float64(n))
	var total float64
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= k {
			panic("nn: label out of range")
		}
		p := probs.Data[i*k+y]
		// Clamp to avoid log(0) for confidently wrong predictions.
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(float64(p))
		row := dlogits.Row(i)
		row[y] -= 1
		for j := range row {
			row[j] *= invN
		}
	}
	return total / float64(n)
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
