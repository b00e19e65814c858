package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.P50 != 3 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(xs, 0) != 10 || Percentile(xs, 100) != 40 {
		t.Error("percentile edges wrong")
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("P50 = %v, want 25 (interpolated)", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile(xs, -5) != 10 || Percentile(xs, 120) != 40 {
		t.Error("out-of-range p should clamp")
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		sort.Float64s(xs)
		for _, p := range []float64{0, 25, 50, 75, 95, 99, 100} {
			v := Percentile(xs, p)
			if v < xs[0]-1e-9 || v > xs[n-1]+1e-9 {
				return false
			}
		}
		// Monotone in p.
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(1000, 300)
	for i := 0; i < 4; i++ {
		ts.Append(float64(i))
	}
	if ts.Mean() != 1.5 || ts.Min() != 0 || ts.Max() != 3 {
		t.Errorf("stats: mean=%v min=%v max=%v", ts.Mean(), ts.Min(), ts.Max())
	}
}

func TestTimeSeriesEmptyStats(t *testing.T) {
	ts := NewTimeSeries(0, 60)
	if ts.Mean() != 0 || ts.Min() != 0 || ts.Max() != 0 {
		t.Error("empty series stats should be 0")
	}
}

func TestTimeSeriesBucket(t *testing.T) {
	ts := NewTimeSeries(0, 300) // 5-minute samples
	for i := 0; i < 24; i++ {   // two hours
		ts.Append(float64(i))
	}
	hourly := ts.Bucket(3600)
	if len(hourly.Values) != 2 {
		t.Fatalf("bucketed to %d samples, want 2", len(hourly.Values))
	}
	if hourly.Values[0] != 5.5 || hourly.Values[1] != 17.5 {
		t.Errorf("bucket means = %v", hourly.Values)
	}
	if hourly.Interval != 3600 {
		t.Errorf("bucket interval = %d", hourly.Interval)
	}
}

func TestTimeSeriesBucketPartialTail(t *testing.T) {
	ts := NewTimeSeries(0, 60)
	for i := 0; i < 5; i++ {
		ts.Append(10)
	}
	b := ts.Bucket(180) // 3 samples per bucket; tail has 2
	if len(b.Values) != 2 || b.Values[1] != 10 {
		t.Errorf("partial tail bucket = %v", b.Values)
	}
}

func TestTimeSeriesBucketNoCoarser(t *testing.T) {
	ts := NewTimeSeries(0, 300)
	ts.Append(1)
	b := ts.Bucket(60) // finer than the sampling interval: copy
	if len(b.Values) != 1 || b.Interval != 300 {
		t.Errorf("Bucket with finer width should copy: %+v", b)
	}
	b.Values[0] = 99
	if ts.Values[0] != 1 {
		t.Error("Bucket copy shares backing array with original")
	}
}

func TestPropertySummaryMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		min, max := xs[0], xs[0]
		for _, v := range xs {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return s.Mean >= min-1e-6 && s.Mean <= max+1e-6 && s.P50 >= min-1e-6 && s.P99 <= max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
