package metrics

import (
	"math/rand"
	"testing"
)

func TestBootstrapMeanCICoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	ci := BootstrapMeanCI(xs, 2000, 0.95, 7)
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Errorf("95%% CI [%v, %v] misses the true mean 10", ci.Lo, ci.Hi)
	}
	if ci.Lo >= ci.Hi {
		t.Errorf("degenerate interval [%v, %v]", ci.Lo, ci.Hi)
	}
	if ci.Mean < 9.5 || ci.Mean > 10.5 {
		t.Errorf("sample mean %v far from 10", ci.Mean)
	}
}

func TestBootstrapMeanCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := BootstrapMeanCI(xs, 500, 0.95, 3)
	b := BootstrapMeanCI(xs, 500, 0.95, 3)
	if a != b {
		t.Errorf("same seed differed: %+v vs %+v", a, b)
	}
}

func TestBootstrapMeanCIEmpty(t *testing.T) {
	if ci := BootstrapMeanCI(nil, 100, 0.95, 1); ci != (CI{}) {
		t.Errorf("empty input: %+v", ci)
	}
}

func TestBootstrapMeanCIDefaults(t *testing.T) {
	xs := []float64{5, 5, 5}
	ci := BootstrapMeanCI(xs, 0, 2.0, 1) // invalid knobs fall back
	if ci.Mean != 5 || ci.Lo != 5 || ci.Hi != 5 {
		t.Errorf("constant sample: %+v", ci)
	}
}

func TestBootstrapNarrowsWithSampleSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := make([]float64, 20)
	large := make([]float64, 2000)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	ciS := BootstrapMeanCI(small, 1000, 0.95, 5)
	ciL := BootstrapMeanCI(large, 1000, 0.95, 5)
	if (ciL.Hi - ciL.Lo) >= (ciS.Hi - ciS.Lo) {
		t.Errorf("larger sample should give a tighter interval: %v vs %v", ciL.Hi-ciL.Lo, ciS.Hi-ciS.Lo)
	}
}
