// Package inference models the inference cluster from Lyra's point of view.
// Lyra never schedules inference jobs; it only consumes the inference
// scheduler's instructions about how many servers are available for loaning
// and how many must be reclaimed (§4, Assumptions). This package provides:
//
//   - a parametric diurnal GPU-utilization model calibrated to Figure 1
//     (42% trough before dawn, 95% evening peak, ~65% average,
//     peak-to-trough ratio ~2.2, weekend dips, short traffic bursts), and
//   - a Scheduler that converts utilization into a target number of on-loan
//     servers, holding back the 2% headroom of §7.1.
package inference

import (
	"math"
	"math/rand"

	"lyra/internal/metrics"
)

// Hour anchors of the diurnal utilization curve (fraction of GPUs serving at
// least one request). Linear interpolation between anchors reproduces the
// asymmetric shape of Figure 1: a four-hour evening peak and a trough before
// dawn.
// Customer traffic is substantial through the working day, peaks in the
// evening ("peak traffic lasts about four hours at night") and bottoms out
// before dawn — so the loanable slack is deepest exactly when the training
// cluster is idle too, and thin during the daytime submission rush.
var diurnalAnchors = [...]struct {
	hour float64
	util float64
}{
	{0, 0.80}, {2, 0.58}, {4, 0.44}, {5, 0.42}, {7, 0.55}, {9, 0.70},
	{12, 0.78}, {15, 0.76}, {17, 0.80}, {19, 0.88}, {20, 0.95}, {22, 0.93},
	{24, 0.80},
}

// UtilizationModelConfig parameterizes the synthetic utilization trace.
type UtilizationModelConfig struct {
	Seed         int64
	NoiseStdDev  float64 // Gaussian AR(1) noise, default 0.015
	BurstProb    float64 // per-sample probability a burst starts, default 0.01
	BurstMax     float64 // maximum burst amplitude, default 0.04 (median ~2%)
	WeekendScale float64 // multiplicative weekend factor, default 0.92
}

// DefaultUtilizationConfig returns the calibration used in the evaluation.
func DefaultUtilizationConfig(seed int64) UtilizationModelConfig {
	return UtilizationModelConfig{
		Seed:         seed,
		NoiseStdDev:  0.015,
		BurstProb:    0.01,
		BurstMax:     0.04,
		WeekendScale: 0.92,
	}
}

// BaseUtilization returns the deterministic diurnal curve at time t (seconds
// since trace start; trace starts at midnight on a Thursday, matching the
// Oct 1 2020 start of Figure 1). Weekend scaling is applied by
// GenerateUtilization, not here.
func BaseUtilization(t int64) float64 {
	const day = 86400
	hour := float64(t%day) / 3600
	return interpAnchors(hour)
}

func interpAnchors(hour float64) float64 {
	a := diurnalAnchors[:]
	for i := 1; i < len(a); i++ {
		if hour <= a[i].hour {
			span := a[i].hour - a[i-1].hour
			frac := (hour - a[i-1].hour) / span
			return a[i-1].util*(1-frac) + a[i].util*frac
		}
	}
	return a[len(a)-1].util
}

// isWeekend reports whether t falls on a Saturday or Sunday, with day 0 of
// the trace being a Thursday (Oct 1 2020).
func isWeekend(t int64) bool {
	day := int(t / 86400)
	weekday := (day + 4) % 7 // day 0 = Thursday = weekday 4
	return weekday == 6 || weekday == 0
}

// GenerateUtilization produces a utilization series sampled every interval
// seconds for the given horizon. The same seed always yields the same
// series.
func GenerateUtilization(cfg UtilizationModelConfig, horizon, interval int64) *metrics.TimeSeries {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ts := metrics.NewTimeSeries(0, interval)
	noise := 0.0
	burstLeft := 0
	burstAmp := 0.0
	for t := int64(0); t < horizon; t += interval {
		u := BaseUtilization(t)
		if cfg.WeekendScale > 0 && isWeekend(t) {
			u *= cfg.WeekendScale
		}
		noise = 0.8*noise + rng.NormFloat64()*cfg.NoiseStdDev
		if burstLeft > 0 {
			burstLeft--
		} else if rng.Float64() < cfg.BurstProb {
			burstLeft = 1 + rng.Intn(6) // 5-30 minutes at 5-min sampling
			burstAmp = rng.Float64() * cfg.BurstMax
		}
		b := 0.0
		if burstLeft > 0 {
			b = burstAmp
		}
		ts.Append(clamp01(u + noise + b))
	}
	return ts
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Scheduler stands in for the inference cluster scheduler: given the
// utilization series it autonomously decides how many whole servers are
// loanable at any time, holding back a headroom fraction of cluster
// capacity that is never loaned (§7.1: 2%).
type Scheduler struct {
	Series       *metrics.TimeSeries
	TotalServers int
	Headroom     float64 // fraction of cluster capacity never loaned
}

// NewScheduler returns an inference scheduler over the utilization series.
func NewScheduler(series *metrics.TimeSeries, totalServers int, headroom float64) *Scheduler {
	return &Scheduler{Series: series, TotalServers: totalServers, Headroom: headroom}
}

// UtilizationAt returns the modeled utilization at time t, clamping to the
// series bounds.
func (s *Scheduler) UtilizationAt(t int64) float64 {
	if len(s.Series.Values) == 0 {
		return 1
	}
	i := int((t - s.Series.Start) / s.Series.Interval)
	if i < 0 {
		i = 0
	}
	if i >= len(s.Series.Values) {
		i = len(s.Series.Values) - 1
	}
	return s.Series.Values[i]
}

// TargetOnLoan returns the number of whole servers the inference scheduler
// is willing to have on loan at time t: the idle fraction beyond utilization
// and headroom, rounded down to whole servers.
func (s *Scheduler) TargetOnLoan(t int64) int {
	return s.TargetForUtilization(s.UtilizationAt(t))
}

// TargetForUtilization computes the loanable-server count for a given
// utilization level — the same policy as TargetOnLoan, but usable with a
// predicted utilization (the proactive reclaiming of §6).
func (s *Scheduler) TargetForUtilization(util float64) int {
	idle := 1 - util - s.Headroom
	if idle <= 0 {
		return 0
	}
	return int(math.Floor(idle * float64(s.TotalServers)))
}
