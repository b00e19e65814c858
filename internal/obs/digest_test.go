package obs

import (
	"math"
	"testing"
)

func TestDigestQuantileAccuracy(t *testing.T) {
	var d Digest
	// 1..10000 uniformly: quantile estimates must land within the digest's
	// documented ~±4.4% relative error (one log bucket at 8 per octave is
	// 2^(1/8) ≈ 1.0905 wide, half a bucket each way from the midpoint rep).
	for i := 1; i <= 10000; i++ {
		d.Observe(float64(i))
	}
	if d.Count() != 10000 {
		t.Fatalf("count = %d, want 10000", d.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.90, 9000}, {0.99, 9900},
	} {
		got := d.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.05 {
			t.Errorf("q%.0f = %.0f, want %.0f ±5%% (off by %.1f%%)", 100*tc.q, got, tc.want, 100*rel)
		}
	}
}

func TestDigestDeterminism(t *testing.T) {
	// Same multiset, different insertion order → identical quantiles. This
	// is the property reservoir sampling lacks and why the digest backs the
	// profiler's per-phase p50/p99.
	var a, b Digest
	for i := 0; i < 1000; i++ {
		a.Observe(float64(i%97) + 1)
	}
	for i := 999; i >= 0; i-- {
		b.Observe(float64(i%97) + 1)
	}
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Errorf("q%g: %g vs %g under reordered input", q, qa, qb)
		}
	}
}

func TestDigestEdgeCases(t *testing.T) {
	var d Digest
	if q := d.Quantile(0.5); q != 0 {
		t.Fatalf("empty digest q50 = %g, want 0", q)
	}
	d.Observe(0)
	d.Observe(-4)
	d.Observe(math.NaN())
	if d.Count() != 3 {
		t.Fatalf("count = %d, want 3 (zeros bucket)", d.Count())
	}
	if q := d.Quantile(0.99); q != 0 {
		t.Fatalf("all-nonpositive q99 = %g, want 0", q)
	}
	d.Observe(100)
	if q := d.Quantile(1.0); math.Abs(q-100)/100 > 0.05 {
		t.Fatalf("q100 = %g, want ~100", q)
	}
	if q := d.Quantile(0.5); q != 0 {
		t.Fatalf("q50 = %g, want 0 (3 of 4 observations are zero)", q)
	}
}
