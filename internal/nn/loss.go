package nn

import (
	"fmt"
	"math"

	"dssp/internal/tensor"
)

// SoftmaxCrossEntropy combines the softmax activation and the mean
// cross-entropy loss over integer class labels, the standard objective for
// the image-classification tasks in the paper.
type SoftmaxCrossEntropy struct {
	lastProbs        *tensor.Tensor // a view of probs
	lastLabels       []int
	probs, gradients buffer // reused (scratch.go)
}

// NewSoftmaxCrossEntropy returns a fresh loss head.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward computes the mean cross-entropy of the logits against the labels
// and caches the softmax probabilities for Backward.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: loss expects (batch,classes) logits, got %v", logits.Shape()))
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), batch))
	}
	probs := l.probs.get(batch, classes)
	l.lastProbs = probs
	ld := logits.Data()
	pd := probs.Data()
	var total float64
	for b := 0; b < batch; b++ {
		row := ld[b*classes : (b+1)*classes]
		prow := pd[b*classes : (b+1)*classes]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[i] = float32(e)
			sum += e
		}
		label := labels[b]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, classes))
		}
		for i := range prow {
			prow[i] = float32(float64(prow[i]) / sum)
		}
		p := float64(prow[label])
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
	}
	l.lastLabels = append(l.lastLabels[:0], labels...)
	return total / float64(batch)
}

// Backward returns the gradient of the mean loss with respect to the logits:
// (softmax - onehot) / batch.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if l.lastProbs == nil {
		panic("nn: loss Backward called before Forward")
	}
	batch, classes := l.lastProbs.Dim(0), l.lastProbs.Dim(1)
	grad := l.gradients.get(batch, classes)
	gd := grad.Data()
	copy(gd, l.lastProbs.Data())
	inv := float32(1.0 / float64(batch))
	for b := 0; b < batch; b++ {
		row := gd[b*classes : (b+1)*classes]
		row[l.lastLabels[b]] -= 1
		for i := range row {
			row[i] *= inv
		}
	}
	return grad
}
