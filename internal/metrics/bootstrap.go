package metrics

import (
	"math/rand"
	"sort"
)

// CI is a bootstrap confidence interval for a sample mean.
type CI struct {
	Mean float64
	Lo   float64 // lower bound
	Hi   float64 // upper bound
}

// BootstrapMeanCI estimates a confidence interval for the mean of xs by
// percentile bootstrap with the given number of resamples and confidence
// level (e.g. 0.95). Deterministic in seed. Used by the reproducibility
// study (Figure 12) to back the paper's "statistically significant and
// consistent" claim with actual intervals.
func BootstrapMeanCI(xs []float64, resamples int, confidence float64, seed int64) CI {
	if len(xs) == 0 {
		return CI{}
	}
	if resamples <= 0 {
		resamples = 1000
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	for r := range means {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	return CI{
		Mean: Mean(xs),
		Lo:   Percentile(means, 100*alpha),
		Hi:   Percentile(means, 100*(1-alpha)),
	}
}
