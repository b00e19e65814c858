package predict

import (
	"math"
	"testing"
)

// TestGradientCheck verifies the analytic BPTT gradients against central
// finite differences on a tiny two-layer network.
func TestGradientCheck(t *testing.T) {
	cfg := LSTMConfig{
		Window: 4, Hidden: 3, Layers: 2, LR: 0, Seed: 1,
		ClipGrad: 1e9, Beta1: 0.9, Beta2: 0.999, AdamEps: 1e-8, InitStdDev: 0.5,
	}
	n := NewLSTM(cfg)
	window := []float64{0.1, 0.5, 0.3, 0.8}
	const target = 0.4

	loss := func() float64 {
		d := n.Predict(window) - target
		return d * d
	}

	// Accumulate the analytic gradients with the code TrainStep runs,
	// without the Adam update, so the weights stay fixed for finite
	// differencing.
	n.backprop(window, target)

	for pi, p := range n.params {
		for i := range p.w {
			const eps = 1e-6
			old := p.w[i]
			p.w[i] = old + eps
			lp := loss()
			p.w[i] = old - eps
			lm := loss()
			p.w[i] = old
			num := (lp - lm) / (2 * eps)
			ana := p.g[i]
			denom := math.Max(1e-6, math.Abs(num)+math.Abs(ana))
			if rel := math.Abs(num-ana) / denom; rel > 0.01 {
				t.Fatalf("param %d index %d: numeric %v analytic %v (rel err %v)", pi, i, num, ana, rel)
			}
		}
	}
}
