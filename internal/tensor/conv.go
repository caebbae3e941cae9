package tensor

import (
	"fmt"
	"math"
)

// BatchNorm normalizes x over the batch (and spatial dims for rank-4 input)
// per channel, using gamma/beta scale and shift. In training mode it uses
// batch statistics and updates runningMean/runningVar in place with the given
// momentum; in inference mode it uses the running statistics. This dual
// behaviour is the branch that breaks trace-based converters in Figure 6 of
// the paper.
func BatchNorm(x, gamma, beta, runningMean, runningVar *Tensor, training bool, momentum, eps float64) *Tensor {
	var chans, spatial int
	switch x.Rank() {
	case 2:
		chans = x.shape[1]
		spatial = 1
	case 4:
		chans = x.shape[1]
		spatial = x.shape[2] * x.shape[3]
	default:
		panic(fmt.Sprintf("tensor: BatchNorm wants rank 2 or 4, got %v", x.shape))
	}
	n := x.shape[0]
	out := Zeros(x.shape...)
	count := float64(n * spatial)
	for ch := 0; ch < chans; ch++ {
		var mean, variance float64
		if training {
			s := 0.0
			forEachChannel(x, ch, chans, spatial, func(v float64) { s += v })
			mean = s / count
			v2 := 0.0
			forEachChannel(x, ch, chans, spatial, func(v float64) { d := v - mean; v2 += d * d })
			variance = v2 / count
			runningMean.data[ch] = momentum*runningMean.data[ch] + (1-momentum)*mean
			runningVar.data[ch] = momentum*runningVar.data[ch] + (1-momentum)*variance
		} else {
			mean = runningMean.data[ch]
			variance = runningVar.data[ch]
		}
		inv := 1 / math.Sqrt(variance+eps)
		g, b := gamma.data[ch], beta.data[ch]
		mapChannel(x, out, ch, chans, spatial, func(v float64) float64 {
			return (v-mean)*inv*g + b
		})
	}
	return out
}

func forEachChannel(x *Tensor, ch, chans, spatial int, f func(float64)) {
	n := x.shape[0]
	for i := 0; i < n; i++ {
		base := (i*chans + ch) * spatial
		for s := 0; s < spatial; s++ {
			f(x.data[base+s])
		}
	}
}

func mapChannel(x, out *Tensor, ch, chans, spatial int, f func(float64) float64) {
	n := x.shape[0]
	for i := 0; i < n; i++ {
		base := (i*chans + ch) * spatial
		for s := 0; s < spatial; s++ {
			out.data[base+s] = f(x.data[base+s])
		}
	}
}
