package predict

import (
	"math/rand"

	"lyra/internal/job"
)

// RuntimeEstimator supplies the running-time estimates Lyra's SJF phase
// sorts on (§5.2: "predicted with profiling and ML methods"). The default
// estimator is an oracle reading the trace's true runtime; ErrorConfig
// injects the wrong-prediction model of Table 9, where a configurable
// fraction of jobs receive estimates off by a random margin of up to
// MaxError.
type RuntimeEstimator struct {
	// FracWrong is the fraction of jobs whose estimate is wrong (Table 9
	// sweeps 0, 20%, 40%, 60%).
	FracWrong float64
	// MaxError is the maximum relative error magnitude for wrong
	// estimates (Table 9 uses 25%).
	MaxError float64
	// Seed makes the error assignment deterministic per job.
	Seed int64
}

// Oracle returns an estimator with no injected error.
func Oracle() *RuntimeEstimator { return &RuntimeEstimator{} }

// WithError returns an estimator where fracWrong of jobs get estimates with
// up to maxError relative error.
func WithError(fracWrong, maxError float64, seed int64) *RuntimeEstimator {
	return &RuntimeEstimator{FracWrong: fracWrong, MaxError: maxError, Seed: seed}
}

// Estimate returns the estimated running time of j at its maximum demand.
// The error for a given (estimator, job ID) pair is deterministic, so
// repeated scheduling epochs see a consistent estimate for the same job.
func (e *RuntimeEstimator) Estimate(j *job.Job) float64 { return e.estimate(j, nil) }

// estimate is Estimate drawing from rng (a fresh one if nil) reseeded for
// j: Seed restarts a stream exactly as a fresh source would.
func (e *RuntimeEstimator) estimate(j *job.Job, rng *rand.Rand) float64 {
	truth := j.MinRuntime(job.Linear)
	if e.FracWrong <= 0 || e.MaxError <= 0 {
		return truth
	}
	// Derive a per-job RNG from the seed and job ID so that the wrong set
	// and the error magnitudes are stable across the simulation.
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	rng.Seed(e.Seed*1000003 + int64(j.ID))
	if rng.Float64() >= e.FracWrong {
		return truth
	}
	// Error margin uniform in [-MaxError, +MaxError], excluding zero bias.
	m := (rng.Float64()*2 - 1) * e.MaxError
	est := truth * (1 + m)
	if est <= 0 {
		est = truth * 0.01
	}
	return est
}

// Annotate writes estimates into each job's EstimatedRuntime field, with
// one random stream reseeded per job (none without injected error).
func (e *RuntimeEstimator) Annotate(jobs []*job.Job) {
	var rng *rand.Rand
	if e.FracWrong > 0 && e.MaxError > 0 {
		rng = rand.New(rand.NewSource(0))
	}
	for _, j := range jobs {
		j.EstimatedRuntime = e.estimate(j, rng)
	}
}
