package lyra

import (
	"fmt"
	"math/rand"
)

// ScenarioKind selects one of the evaluation scenarios of §7.1, which
// differ in how many jobs support elastic scaling and heterogeneous
// training.
type ScenarioKind string

// Evaluation scenarios.
const (
	// Baseline: FIFO, no loaning, no elastic scaling (Table 5 row 1).
	Baseline ScenarioKind = "baseline"
	// Basic: 21% fungible jobs for loaning, ~5% elastic jobs for scaling,
	// no heterogeneous training. The default scenario (row 2).
	Basic ScenarioKind = "basic"
	// Advanced: Basic plus 10% of jobs capable of heterogeneous training
	// at 70% of ideal performance (row 3).
	Advanced ScenarioKind = "advanced"
	// Heterogeneous: no fungible load; only the 10% heterogeneous jobs
	// cross the cluster boundary (row 4).
	Heterogeneous ScenarioKind = "heterogeneous"
	// Ideal: every job supports scaling and heterogeneous training with
	// ideal performance; jobs without a scaling range get base = requested
	// demand and max = twice that (row 5).
	Ideal ScenarioKind = "ideal"
)

// Scenarios lists the evaluation scenarios in paper order.
func Scenarios() []ScenarioKind {
	return []ScenarioKind{Baseline, Basic, Advanced, Heterogeneous, Ideal}
}

// Valid reports whether k names a known scenario.
func (k ScenarioKind) Valid() bool {
	for _, s := range Scenarios() {
		if s == k {
			return true
		}
	}
	return false
}

// Apply adapts a config and/or a trace to the scenario in one step:
// scheduler flags and the scaling model on the config, the per-job
// capability flags on the trace (deterministically in seed). It is the
// single scenario-application path — a declared run's Mix routes through
// it, so config and trace cannot be adapted to different scenarios by
// mistake. Either pointer may be nil when only the other side is wanted.
// Unknown kinds apply nothing; validate with ScenarioKind.Valid.
func (k ScenarioKind) Apply(cfg *Config, tr *Trace, seed int64) {
	if tr != nil {
		applyScenarioTrace(tr, k, seed)
	}
	if cfg == nil {
		return
	}
	switch k {
	case Baseline:
		cfg.Scheduler = SchedFIFO
		cfg.Elastic = false
		cfg.Loaning = false
	case Basic:
		cfg.Scaling.HeteroPenalty = 0.7 // irrelevant: no hetero jobs
	case Advanced, Heterogeneous:
		cfg.Scaling.HeteroPenalty = 0.7
	case Ideal:
		cfg.Scaling.HeteroPenalty = 1.0
	}
}

// Mix is a declared run's workload adaptation: a §7.1 scenario applied to
// config and trace together, then the Figures 11-16 mix knobs on the trace.
// A compiled spec cell and a runner.Spec carry the same value, so the two
// cannot adapt one workload differently. The zero Mix adapts nothing.
type Mix struct {
	Scenario     ScenarioKind
	ScenarioSeed int64

	HeteroFrac     *FracKnob
	ElasticFrac    *FracKnob
	CheckpointFrac *FracKnob
}

// FracKnob is one workload-mix knob: mark Frac of the jobs, chosen by Seed.
type FracKnob struct {
	Frac float64
	Seed int64
}

// Apply adapts cfg and tr in the one order a run uses: the scenario first
// (an unknown one is an error and changes nothing), then the hetero,
// elastic and checkpoint fractions. The order matters — Ideal makes every
// job elastic, and an elastic fraction applied after it re-draws them.
func (m Mix) Apply(cfg *Config, tr *Trace) error {
	if m.Scenario != "" {
		if !m.Scenario.Valid() {
			return fmt.Errorf("Scenario: unknown scenario %q (valid: %v)", m.Scenario, Scenarios())
		}
		m.Scenario.Apply(cfg, tr, m.ScenarioSeed)
	}
	if k := m.HeteroFrac; k != nil {
		setHeteroFraction(tr, k.Frac, k.Seed)
	}
	if k := m.ElasticFrac; k != nil {
		setElasticFraction(tr, k.Frac, k.Seed)
	}
	if k := m.CheckpointFrac; k != nil {
		setCheckpointFraction(tr, k.Frac, k.Seed)
	}
	return nil
}

func applyScenarioTrace(tr *Trace, kind ScenarioKind, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case Baseline, Basic:
		// Trace defaults: 21% fungible, ~5% elastic, no hetero.
		for _, j := range tr.Jobs {
			j.Hetero = false
		}
	case Advanced:
		// 10% heterogeneous-capable jobs, randomly selected and evenly
		// distributed across the trace (§7.1).
		for _, j := range tr.Jobs {
			j.Hetero = rng.Float64() < 0.10
		}
	case Heterogeneous:
		// Fungible load disabled; 10% heterogeneous only.
		for _, j := range tr.Jobs {
			j.Fungible = false
			j.Hetero = rng.Float64() < 0.10
		}
	case Ideal:
		// Full flexibility: every job is fungible, elastic and
		// heterogeneous-capable; jobs without a scaling range scale to
		// twice their requested demand.
		for _, j := range tr.Jobs {
			j.Fungible = true
			j.Hetero = true
			if !j.Elastic {
				j.Elastic = true
				j.MaxWorkers = 2 * j.MinWorkers
			}
		}
	}
}

// setHeteroFraction marks the given fraction of jobs heterogeneous-capable
// (Figure 11's sweep), deterministically in seed.
func setHeteroFraction(tr *Trace, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range tr.Jobs {
		j.Hetero = rng.Float64() < frac
	}
}

// setElasticFraction makes the given fraction of jobs elastic (Figures
// 14-16): chosen inelastic jobs get a scaling range of twice their
// requested demand, mirroring the Ideal scenario's rule.
func setElasticFraction(tr *Trace, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range tr.Jobs {
		switch {
		case rng.Float64() < frac:
			if !j.Elastic {
				j.Elastic = true
				j.MaxWorkers = 2 * j.MinWorkers
			}
		case j.Elastic:
			j.Elastic = false
			j.MaxWorkers = j.MinWorkers
		}
	}
}

// setCheckpointFraction enables checkpointing for the given fraction of
// jobs (Figure 13).
func setCheckpointFraction(tr *Trace, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range tr.Jobs {
		j.Checkpoint = rng.Float64() < frac
	}
}
