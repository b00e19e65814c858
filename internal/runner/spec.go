// Package runner is the shared experiment runner behind the benchmark
// harness: it fans lyra.Run (and lyra.RunTestbed) executions out over a
// bounded worker pool and memoizes every result behind a content-derived
// key, with singleflight semantics so concurrent requests for the same
// experiment run one simulation. The experiments package declares its runs as Spec values
// instead of calling lyra.Run imperatively; the pool makes a full registry
// regeneration bound by the number of DISTINCT simulations and the core
// count, not by the number of tables.
//
// Memoization is safe because PR 1 made simulation results deterministic
// functions of their declarative inputs (config, trace parameters, seeds) —
// see DESIGN.md §6. Cached results are shared pointers: treat them as
// immutable.
package runner

import (
	"lyra"
)

// Spec declares one run: a scheme configuration plus the trace it replays,
// both in declarative (content-hashable) form, and the substrate that runs
// them — the simulator unless Testbed is set. Build one with NewSpec and the
// With* helpers.
type Spec struct {
	// Name labels the run in error messages; it does not affect identity.
	Name string `json:"-"`

	// Config is the scheme under test, before scenario adaptation.
	Config lyra.Config

	// Mix adapts config and trace after the trace is materialized: the
	// scenario on both at once, then the mix knobs (lyra.Mix.Apply).
	Mix lyra.Mix

	// Trace declares the workload.
	Trace TraceSpec

	// Testbed, when set, runs the spec on the prototype runtime
	// (lyra.RunTestbed, §7.5) with these options instead of the simulator:
	// the same Config, the same memoized trace — usually the testbed
	// workload, Trace.TestbedJobs — and the same *lyra.Report back. Omitted
	// from the key when nil, so simulator keys do not depend on it.
	Testbed *lyra.TestbedOptions `json:",omitempty"`
}

// TraceSpec declares a workload as generation parameters plus an optional
// bootstrap resample. The base trace for a given generation key is
// synthesized once per pool and cloned per run.
type TraceSpec struct {
	// Gen synthesizes the production-like base trace. Ignored when
	// TestbedJobs is set.
	Gen lyra.TraceConfig

	// TestbedJobs > 0 selects the §7.5 testbed workload generator
	// (trace.GenerateTestbed) with TestbedSeed instead of Gen.
	TestbedJobs int
	TestbedSeed int64

	// Bootstrap resamples the base trace (Figure 12) before the spec's Mix
	// adapts it.
	Bootstrap *BootstrapSpec
}

// BootstrapSpec selects one of Count day-resampled traces derived from the
// base trace with the given seed.
type BootstrapSpec struct {
	Days  int
	Count int
	Index int
	Seed  int64
}

// NewSpec starts a Spec from a scheme config and trace generation
// parameters.
func NewSpec(cfg lyra.Config, gen lyra.TraceConfig) Spec {
	return Spec{Config: cfg, Trace: TraceSpec{Gen: gen}}
}

// Named labels the spec for error messages.
func (s Spec) Named(name string) Spec { s.Name = name; return s }

// WithScenario adapts config and trace to the named scenario (one step, via
// lyra.ScenarioKind.Apply at execution time).
func (s Spec) WithScenario(kind lyra.ScenarioKind, seed int64) Spec {
	s.Mix.Scenario, s.Mix.ScenarioSeed = kind, seed
	return s
}

// WithHeteroFrac marks frac of the jobs heterogeneous-capable (Figure 11).
func (s Spec) WithHeteroFrac(frac float64, seed int64) Spec {
	s.Mix.HeteroFrac = &lyra.FracKnob{Frac: frac, Seed: seed}
	return s
}

// WithElasticFrac makes frac of the jobs elastic (Figures 14-16).
func (s Spec) WithElasticFrac(frac float64, seed int64) Spec {
	s.Mix.ElasticFrac = &lyra.FracKnob{Frac: frac, Seed: seed}
	return s
}

// WithCheckpointFrac enables checkpointing for frac of the jobs (Figure 13).
func (s Spec) WithCheckpointFrac(frac float64, seed int64) Spec {
	s.Mix.CheckpointFrac = &lyra.FracKnob{Frac: frac, Seed: seed}
	return s
}

// WithBootstrap replays bootstrapped trace index of count (Figure 12).
func (s Spec) WithBootstrap(days, count, index int, seed int64) Spec {
	s.Trace.Bootstrap = &BootstrapSpec{Days: days, Count: count, Index: index, Seed: seed}
	return s
}

// Key returns the spec's content key: the canonical hash of the NORMALIZED
// config plus every trace, scenario and substrate knob. Two semantically
// equal specs (e.g. Headroom 0 vs 0.02, Reclaim set vs unset without
// loaning) key equal; any meaningful field flip keys different. A prototype
// spec normalizes the way lyra.RunTestbed does, config and options both, at
// the prototype's interval defaults.
func (s Spec) Key() (string, error) {
	s.Name = ""
	if s.Testbed != nil {
		s.Config = s.Config.NormalizeTestbed()
		tb := s.Testbed.Normalize()
		s.Testbed = &tb
	} else {
		s.Config = s.Config.Normalize()
	}
	return KeyOf("sim", s)
}

func (s Spec) label() string {
	switch {
	case s.Name != "":
		return s.Name
	case s.Testbed != nil:
		return "testbed/" + string(s.Config.Scheduler)
	}
	return string(s.Config.Scheduler)
}
