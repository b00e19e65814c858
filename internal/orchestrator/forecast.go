package orchestrator

import (
	"lyra/internal/inference"
	"lyra/internal/predict"
)

// LoanTargeter supplies the number of servers the inference cluster is
// willing to have on loan at a given time. inference.Scheduler implements
// it reactively; Forecaster implements it proactively.
type LoanTargeter interface {
	TargetOnLoan(t int64) int
}

// Forecaster is the proactive variant of §6: Lyra's LSTM usage predictor
// (window 10, two hidden layers, Adam, MSE) forecasts the next five minutes
// of inference resource usage, and the loan target honors whichever is
// higher — current or predicted utilization — so reclaiming starts *before*
// the traffic rise lands and fewer trailing-edge preemptions occur. Like
// the predictor it owns, it is not safe for concurrent use.
type Forecaster struct {
	sched *inference.Scheduler
	lstm  *predict.LSTM
}

// NewForecaster trains the predictor on the scheduler's utilization series
// (the paper trains on the trailing history of the same signal; the series
// here is the model's own output, so a short fit suffices) and returns the
// proactive targeter.
func NewForecaster(sched *inference.Scheduler, seed int64) *Forecaster {
	cfg := predict.DefaultLSTMConfig(seed)
	cfg.LR = 0.001
	lstm := predict.NewLSTM(cfg)
	series := sched.Series.Values
	// Train on at most the first five days of samples (the paper's 1440
	// points), enough for the diurnal structure.
	limit := 5 * 86400 / int(sched.Series.Interval)
	if limit > len(series) {
		limit = len(series)
	}
	lstm.Fit(series[:limit], 8)
	return &Forecaster{sched: sched, lstm: lstm}
}

// PredictUtilization returns the forecast utilization one sampling interval
// after t, falling back to the current value near the series edges.
func (f *Forecaster) PredictUtilization(t int64) float64 {
	s := f.sched.Series
	idx := int((t - s.Start) / s.Interval)
	const window = 10
	if idx+1 < window || idx >= len(s.Values) {
		return f.sched.UtilizationAt(t)
	}
	p := f.lstm.Predict(s.Values[idx+1-window : idx+1])
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// TargetOnLoan implements LoanTargeter: the conservative minimum of the
// reactive target and the target implied by the predicted utilization.
func (f *Forecaster) TargetOnLoan(t int64) int {
	now := f.sched.TargetOnLoan(t)
	predicted := f.sched.TargetForUtilization(f.PredictUtilization(t))
	if predicted < now {
		return predicted
	}
	return now
}
