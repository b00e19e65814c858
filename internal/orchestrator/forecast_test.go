package orchestrator

import (
	"testing"

	"lyra/internal/inference"
	"lyra/internal/metrics"
)

func TestForecasterTracksDiurnalSeries(t *testing.T) {
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(3), 7*86400, 300)
	sched := inference.NewScheduler(util, 100, 0.02)
	f := NewForecaster(sched, 5)
	// Over the last (unseen during the 5-day fit) day, predictions should
	// track the actual next sample reasonably well.
	sse, n := 0.0, 0
	for ts := int64(6 * 86400); ts < 7*86400-300; ts += 300 {
		p := f.PredictUtilization(ts)
		actual := sched.UtilizationAt(ts + 300)
		d := p - actual
		sse += d * d
		n++
	}
	if mse := sse / float64(n); mse > 0.01 {
		t.Errorf("forecast MSE = %v, want < 0.01", mse)
	}
}

func TestForecasterClampsToUnitInterval(t *testing.T) {
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(1), 2*86400, 300)
	sched := inference.NewScheduler(util, 100, 0.02)
	f := NewForecaster(sched, 2)
	for ts := int64(0); ts < 2*86400; ts += 3600 {
		p := f.PredictUtilization(ts)
		if p < 0 || p > 1 {
			t.Fatalf("prediction %v at t=%d outside [0,1]", p, ts)
		}
	}
}

func TestForecasterEdgeFallback(t *testing.T) {
	ts := metrics.NewTimeSeries(0, 300)
	for i := 0; i < 5; i++ { // shorter than the LSTM window
		ts.Append(0.5)
	}
	sched := inference.NewScheduler(ts, 100, 0.02)
	f := NewForecaster(sched, 1)
	if p := f.PredictUtilization(300); p != 0.5 {
		t.Errorf("edge fallback = %v, want the current value 0.5", p)
	}
}

func TestForecasterTargetIsConservative(t *testing.T) {
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(7), 3*86400, 300)
	sched := inference.NewScheduler(util, 100, 0.02)
	f := NewForecaster(sched, 9)
	for ts := int64(0); ts < 3*86400; ts += 1800 {
		if got, reactive := f.TargetOnLoan(ts), sched.TargetOnLoan(ts); got > reactive {
			t.Fatalf("proactive target %d exceeds reactive %d at t=%d", got, reactive, ts)
		}
	}
}

var benchForecaster *Forecaster

// BenchmarkForecasterFit trains the proactive targeter the way a Small-scale
// run does: four days of five-minute samples from the seed-1 inference side.
func BenchmarkForecasterFit(b *testing.B) {
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(14), 4*86400, 300)
	sched := inference.NewScheduler(util, 64, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchForecaster = NewForecaster(sched, 20)
	}
}
