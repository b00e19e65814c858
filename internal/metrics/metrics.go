// Package metrics provides the statistics Lyra's evaluation reports:
// arithmetic means, exact percentiles (50/75/95/99), reduction ratios
// ("Duration of a scheme compared / Duration of Lyra", §7.1), and sampled
// time series for the usage figures.
package metrics

import (
	"math"
	"sort"
)

// Summary is the five-number report used throughout Table 5, 8 and 10.
type Summary struct {
	N      int
	Mean   float64
	P50    float64
	P75    float64
	P95    float64
	P99    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	sum, sumSq := 0.0, 0.0
	for _, x := range s {
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      n,
		Mean:   mean,
		P50:    Percentile(s, 50),
		P75:    Percentile(s, 75),
		P95:    Percentile(s, 95),
		P99:    Percentile(s, 99),
		Max:    s[n-1],
		StdDev: math.Sqrt(variance),
	}
}

// Percentile returns the p-th percentile (0..100) of sorted, using linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TimeSeries accumulates a regularly sampled series, e.g. the 5-minute GPU
// utilization samples behind Figures 1, 7 and 9.
type TimeSeries struct {
	Interval int64 // seconds between samples
	Start    int64
	Values   []float64
}

// NewTimeSeries returns an empty series sampled every interval seconds.
func NewTimeSeries(start, interval int64) *TimeSeries {
	return &TimeSeries{Interval: interval, Start: start}
}

// Append adds the next sample.
func (ts *TimeSeries) Append(v float64) { ts.Values = append(ts.Values, v) }

// Mean returns the mean of all samples (0 for a series never sampled).
func (ts *TimeSeries) Mean() float64 {
	if ts == nil {
		return 0
	}
	return Mean(ts.Values)
}

// Min and Max return the extrema of the series (0 when empty).
func (ts *TimeSeries) Min() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	m := ts.Values[0]
	for _, v := range ts.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum sample (0 when empty).
func (ts *TimeSeries) Max() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	m := ts.Values[0]
	for _, v := range ts.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Bucket reduces the series to coarser buckets of width seconds by
// averaging, e.g. 5-minute samples into hourly means for Figure 7.
func (ts *TimeSeries) Bucket(width int64) *TimeSeries {
	if width <= ts.Interval {
		cp := &TimeSeries{Interval: ts.Interval, Start: ts.Start}
		cp.Values = append(cp.Values, ts.Values...)
		return cp
	}
	per := int(width / ts.Interval)
	out := &TimeSeries{Interval: width, Start: ts.Start}
	for i := 0; i < len(ts.Values); i += per {
		end := i + per
		if end > len(ts.Values) {
			end = len(ts.Values)
		}
		out.Append(Mean(ts.Values[i:end]))
	}
	return out
}
