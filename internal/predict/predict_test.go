package predict

import (
	"math"
	"testing"

	"lyra/internal/inference"
	"lyra/internal/job"
)

func TestLSTMLearnsConstant(t *testing.T) {
	cfg := DefaultLSTMConfig(1)
	cfg.Hidden, cfg.Layers = 8, 1
	n := NewLSTM(cfg)
	series := make([]float64, 60)
	for i := range series {
		series[i] = 0.6
	}
	mse := n.Fit(series, 30)
	if mse > 1e-3 {
		t.Errorf("constant-series MSE = %v, want < 1e-3", mse)
	}
	win := series[:10]
	if p := n.Predict(win); math.Abs(p-0.6) > 0.05 {
		t.Errorf("prediction %v, want ~0.6", p)
	}
}

func TestLSTMLearnsSine(t *testing.T) {
	cfg := DefaultLSTMConfig(2)
	n := NewLSTM(cfg)
	series := make([]float64, 200)
	for i := range series {
		series[i] = 0.5 + 0.4*math.Sin(float64(i)/8)
	}
	before := n.Evaluate(series)
	after := n.Fit(series, 60)
	if !(after < before/5) {
		t.Errorf("training did not reduce sine MSE: before=%v after=%v", before, after)
	}
	if after > 0.01 {
		t.Errorf("sine MSE = %v, want < 0.01", after)
	}
}

func TestLSTMLearnsUtilizationTrace(t *testing.T) {
	// The paper's predictor reaches MSE ~5e-4 over 1440 five-minute
	// samples (§6). Train on five synthetic days (1440 samples), evaluate
	// on the following day.
	ts := inference.GenerateUtilization(inference.DefaultUtilizationConfig(5), 6*86400, 300)
	day := 86400 / 300
	train, test := ts.Values[:5*day], ts.Values[5*day:]
	cfg := DefaultLSTMConfig(3)
	cfg.LR = 0.001
	n := NewLSTM(cfg)
	n.Fit(train, 12)
	mse := n.Evaluate(test)
	if mse > 0.008 {
		t.Errorf("next-day utilization MSE = %v, want < 8e-3", mse)
	}
}

func TestLSTMDeterministic(t *testing.T) {
	series := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 0.9, 0.8}
	a := NewLSTM(DefaultLSTMConfig(9))
	b := NewLSTM(DefaultLSTMConfig(9))
	a.Fit(series, 5)
	b.Fit(series, 5)
	if pa, pb := a.Predict(series[:10]), b.Predict(series[:10]); pa != pb {
		t.Errorf("same seed diverged: %v vs %v", pa, pb)
	}
}

func TestLSTMFitShortSeries(t *testing.T) {
	n := NewLSTM(DefaultLSTMConfig(1))
	if mse := n.Fit([]float64{1, 2, 3}, 5); !math.IsNaN(mse) {
		t.Errorf("short series should return NaN, got %v", mse)
	}
	if mse := n.Evaluate([]float64{1, 2}); !math.IsNaN(mse) {
		t.Errorf("short evaluate should return NaN, got %v", mse)
	}
}

func TestLSTMPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero window")
		}
	}()
	NewLSTM(LSTMConfig{Window: 0, Hidden: 4, Layers: 1})
}

func TestTrainStepPanicsOnWrongWindow(t *testing.T) {
	n := NewLSTM(DefaultLSTMConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong window length")
		}
	}()
	n.TrainStep([]float64{1, 2}, 0.5)
}

func TestOracleEstimator(t *testing.T) {
	j := job.New(1, 0, job.Generic, 2, 4, 4, 360)
	if got := Oracle().Estimate(j); math.Abs(got-360) > 1e-9 {
		t.Errorf("oracle estimate = %v, want 360", got)
	}
}

func TestErrorEstimatorBounds(t *testing.T) {
	e := WithError(1.0, 0.25, 7)
	for id := 0; id < 200; id++ {
		j := job.New(id, 0, job.Generic, 1, 1, 1, 1000)
		est := e.Estimate(j)
		if est < 750-1e-6 || est > 1250+1e-6 {
			t.Fatalf("job %d estimate %v outside ±25%%", id, est)
		}
	}
}

func TestErrorEstimatorFraction(t *testing.T) {
	e := WithError(0.4, 0.25, 3)
	wrong := 0
	const n = 2000
	for id := 0; id < n; id++ {
		j := job.New(id, 0, job.Generic, 1, 1, 1, 1000)
		if math.Abs(e.Estimate(j)-1000) > 1e-9 {
			wrong++
		}
	}
	frac := float64(wrong) / n
	if frac < 0.35 || frac > 0.45 {
		t.Errorf("wrong fraction = %v, want ~0.40", frac)
	}
}

func TestErrorEstimatorStablePerJob(t *testing.T) {
	e := WithError(0.6, 0.25, 11)
	j := job.New(17, 0, job.Generic, 1, 1, 1, 500)
	if e.Estimate(j) != e.Estimate(j) {
		t.Error("estimate for the same job must be stable across calls")
	}
}

func TestAnnotate(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 0, job.Generic, 1, 1, 1, 100),
		job.New(2, 0, job.Generic, 1, 2, 2, 200),
	}
	Oracle().Annotate(jobs)
	if jobs[0].EstimatedRuntime != 100 || jobs[1].EstimatedRuntime != 200 {
		t.Errorf("annotations = %v, %v", jobs[0].EstimatedRuntime, jobs[1].EstimatedRuntime)
	}
}

// Annotate draws every job's error from one stream reseeded per job: the
// estimates are Estimate's, bit for bit, and the stream is the only thing
// it allocates.
func TestAnnotateMatchesEstimate(t *testing.T) {
	e := WithError(0.4, 0.25, 3)
	jobs := make([]*job.Job, 500)
	for id := range jobs {
		jobs[id] = job.New(id, 0, job.Generic, 1, 1, 1, float64(100+7*id))
	}
	e.Annotate(jobs)
	for _, j := range jobs {
		if want := e.Estimate(j); j.EstimatedRuntime != want {
			t.Fatalf("job %d: Annotate wrote %v, Estimate says %v", j.ID, j.EstimatedRuntime, want)
		}
	}
	if n := testing.AllocsPerRun(5, func() { e.Annotate(jobs) }); n > 2 {
		t.Errorf("Annotate of %d jobs made %v allocations, want at most 2 (one stream)", len(jobs), n)
	}
	if n := testing.AllocsPerRun(5, func() { Oracle().Annotate(jobs) }); n != 0 {
		t.Errorf("oracle Annotate made %v allocations, want none", n)
	}
}
