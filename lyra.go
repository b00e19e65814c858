// Package lyra is a from-scratch reproduction of "Lyra: Elastic Scheduling
// for Deep Learning Clusters" (EuroSys '23). It schedules deep-learning
// training jobs over a training cluster that can borrow idle inference
// servers (capacity loaning, §4) and grow/shrink elastic jobs to soak up
// the transient capacity (elastic scaling, §5).
//
// The package is organized as the paper's system is:
//
//   - this root package: configuration, scheme registry, and the two entry
//     points that assemble a Config's scheme once and run it on either
//     substrate — Run replays a trace through the discrete-event simulator,
//     RunTestbed through the prototype runtime;
//   - internal/sched, internal/alloc, internal/place, internal/reclaim,
//     internal/orchestrator: Lyra's scheduler and every compared scheme;
//   - internal/sim: the discrete-event cluster simulator;
//   - internal/trace, internal/inference, internal/predict: the synthetic
//     substrates standing in for the paper's production traces and LSTM
//     usage predictor;
//   - internal/testbed: a YARN-lite prototype runtime for the testbed-style
//     experiments (§7.5);
//   - internal/experiments: regeneration of every table and figure.
//
// ExampleRun and ExampleRunTestbed show a minimal run on each substrate.
//
// Whole evaluation scenarios — cluster shape, trace synthesis, workload
// mix, fault plan, a scheme matrix and SLO assertions — are declared as
// versioned JSON ScenarioSpec files (LoadSpec, ScenarioSpec.Compile) and
// run as a matrix by cmd/lyra-matrix; see testdata/scenarios/.
package lyra

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/inference"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/knapsack"
	"lyra/internal/metrics"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/predict"
	"lyra/internal/prof"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

// Re-exported configuration types, so that typical users never import the
// internal packages directly.
type (
	// ClusterConfig sizes the training and inference clusters.
	ClusterConfig = cluster.Config
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = trace.Config
	// Trace is a job submission trace.
	Trace = trace.Trace
	// ScalingModel is the job throughput model.
	ScalingModel = job.ScalingModel
	// Summary is the statistics bundle reported per metric.
	Summary = metrics.Summary
	// FaultPlan is the deterministic fault-injection plan (internal/fault):
	// seeded server crashes with timed recoveries, straggler slowdowns, and
	// (testbed) container-launch failures. The zero plan injects nothing.
	FaultPlan = fault.Plan
)

// ResolveFaultPlan parses a fault spec in the CLI syntax, e.g.
// "mtbf=21600,mttr=600,straggler=0.1" (internal/fault.ParsePlan), under
// the one seed fallback chain the CLIs' -faults/-fault-seed and a scenario
// spec's faults/fault_seed share: the plan's own seed, then faultSeed,
// then seed.
// The result is normalized; an empty spec is the zero plan.
func ResolveFaultPlan(spec string, faultSeed, seed int64) (FaultPlan, error) {
	if spec == "" {
		return FaultPlan{}, nil
	}
	p, err := fault.ParsePlan(spec)
	if err != nil {
		return FaultPlan{}, err
	}
	if p.Seed == 0 {
		p.Seed = faultSeed
	}
	if p.Seed == 0 {
		p.Seed = seed
	}
	return p.Normalize(), nil
}

// GenerateTrace synthesizes a production-like trace (see internal/trace).
func GenerateTrace(cfg TraceConfig) *Trace { return trace.Generate(cfg) }

// DefaultTraceConfig is the paper-scale 15-day trace configuration.
func DefaultTraceConfig(seed int64) TraceConfig { return trace.Default(seed) }

// SchedulerKind selects the job scheduler.
type SchedulerKind string

// Available job schedulers (§7.1, "Schemes compared").
const (
	SchedFIFO    SchedulerKind = "fifo"    // Baseline
	SchedLyra    SchedulerKind = "lyra"    // two-phase SJF + MCKP (§5)
	SchedGandiva SchedulerKind = "gandiva" // opportunistic scaling
	SchedAFS     SchedulerKind = "afs"     // greedy marginal-gain
	SchedPollux  SchedulerKind = "pollux"  // goodput GA
)

// ReclaimKind selects the server reclaiming policy (§4, §7.3).
type ReclaimKind string

// Available reclaiming policies.
const (
	ReclaimLyra    ReclaimKind = "lyra"
	ReclaimRandom  ReclaimKind = "random"
	ReclaimSCF     ReclaimKind = "scf"
	ReclaimOptimal ReclaimKind = "optimal"
)

// schedulerRegistry is the single source of truth for the scheduler
// schemes: Validate consults it to fail fast on unknown kinds, and Run
// constructs the scheduler through it. The Config passed to a constructor
// is always normalized.
var schedulerRegistry = map[SchedulerKind]func(Config) sim.Scheduler{
	SchedFIFO: func(cfg Config) sim.Scheduler { return &sched.FIFO{Opportunistic: cfg.Opportunistic} },
	SchedLyra: func(cfg Config) sim.Scheduler {
		return &sched.Lyra{
			Elastic:        cfg.Elastic,
			NaivePlacement: cfg.NaivePlacement,
			Tuned:          cfg.Tuned,
			Opportunistic:  cfg.Opportunistic,
			InfoAgnostic:   cfg.InfoAgnostic,
			Tuning:         alloc.Tuning{StabilityBonus: cfg.StabilityBonus, MaxItems: cfg.Phase2MaxItems},
		}
	},
	SchedGandiva: func(Config) sim.Scheduler { return &sched.Gandiva{} },
	SchedAFS:     func(Config) sim.Scheduler { return &sched.AFS{} },
	SchedPollux:  func(cfg Config) sim.Scheduler { return sched.NewPollux(cfg.Seed + 5) },
}

// reclaimRegistry is the counterpart registry for the reclaiming policies.
var reclaimRegistry = map[ReclaimKind]func(Config) reclaim.Policy{
	ReclaimLyra:   func(Config) reclaim.Policy { return reclaim.Lyra{} },
	ReclaimRandom: func(cfg Config) reclaim.Policy { return reclaim.Random{Rng: rand.New(rand.NewSource(cfg.Seed + 31))} },
	ReclaimSCF:    func(Config) reclaim.Policy { return reclaim.SCF{} },
	ReclaimOptimal: func(Config) reclaim.Policy {
		return reclaim.Optimal{}
	},
}

// Schedulers lists the registered scheduler kinds in sorted order.
func Schedulers() []SchedulerKind {
	out := make([]SchedulerKind, 0, len(schedulerRegistry))
	for k := range schedulerRegistry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reclaims lists the registered reclaiming policies in sorted order.
func Reclaims() []ReclaimKind {
	out := make([]ReclaimKind, 0, len(reclaimRegistry))
	for k := range reclaimRegistry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Valid reports whether k names a registered scheduler.
func (k SchedulerKind) Valid() bool { _, ok := schedulerRegistry[k]; return ok }

// Valid reports whether k names a registered reclaiming policy.
func (k ReclaimKind) Valid() bool { _, ok := reclaimRegistry[k]; return ok }

func kindList[K ~string](ks []K) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}

// Zero marks a Config field as explicitly zero in the fields that treat the
// Go zero value as "use the default": Headroom: lyra.Zero loans every
// inference server (no headroom), PreemptOverhead: lyra.Zero makes
// preemption free. Normalize resolves the sentinel to a literal 0.
const Zero = -1

// Config assembles one simulated scheme.
//
// Several fields treat their zero value as "use the paper's default"; the
// defaults are applied by Normalize (Run normalizes automatically). Fields
// whose default is non-zero accept the Zero sentinel to request a literal
// zero — each field's comment says which rule it follows.
type Config struct {
	Cluster ClusterConfig
	// Scheduler picks the job scheduler; "" defaults to SchedLyra. Unknown
	// kinds are rejected by Validate with the registered list.
	Scheduler SchedulerKind

	// Elastic enables elastic scaling (phase 2) for the Lyra scheduler.
	Elastic bool
	// Loaning enables capacity loaning via the orchestrator.
	Loaning bool
	// Reclaim picks the reclaiming policy when Loaning is on; "" defaults
	// to ReclaimLyra. Normalize clears it when Loaning is off (the policy
	// is never consulted then), so semantically equal configs compare and
	// hash equal.
	Reclaim ReclaimKind
	// Opportunistic switches to the Opportunistic comparison scheme:
	// fungible jobs queue to the inference cluster only (§7.1).
	Opportunistic bool
	// Tuned attaches the hyperparameter-tuning job agent to elastic jobs
	// (Lyra+TunedJobs, §7.4).
	Tuned bool
	// NaivePlacement disables the elastic placement grouping (Table 6).
	NaivePlacement bool
	// ProactiveReclaim drives loan targets from the LSTM usage predictor
	// (§6): reclaiming starts before a predicted traffic rise instead of
	// reacting to it, trimming trailing-edge preemptions.
	ProactiveReclaim bool
	// InfoAgnostic replaces the SJF queue order with least-attained-
	// service (the information-agnostic scheduling the paper leaves as
	// future work in §10): no running-time estimates are consulted.
	InfoAgnostic bool

	// Scaling is the throughput model. The all-zero model defaults to
	// linear scaling with a 0.7 heterogeneous penalty (the paper's default
	// operating point); in a partially-set model, HeteroPenalty 0 defaults
	// to 1 (no penalty). A literal zero penalty is not expressible — it
	// would mean heterogeneous jobs make no progress at all.
	Scaling ScalingModel

	// FracWrongEstimate and MaxEstimateError inject running-time
	// prediction error (Table 9). Zero means no injected error (the
	// default IS zero; no sentinel needed).
	FracWrongEstimate float64
	MaxEstimateError  float64

	// Headroom is the never-loaned fraction of the inference cluster.
	// Zero value defaults to 0.02 (§7.1); Headroom: Zero loans the whole
	// inference cluster.
	Headroom float64

	// SchedInterval and OrchInterval override the simulator epochs. Zero
	// value defaults to 60 s and 300 s; a literal zero interval is
	// meaningless and rejected by Validate (the Zero sentinel too).
	SchedInterval int64
	OrchInterval  int64
	// MaxTime hard-caps simulated seconds; the run stops there even with
	// jobs outstanding. 0 means the simulator default (4x the trace
	// horizon plus seven days of drain; the prototype caps at 4x the
	// horizon). The scale benchmarks use it to time a fixed number of
	// scheduling epochs on clusters too large to drain.
	MaxTime float64
	// PreemptOverhead is the fixed restart cost of a preempted job. Zero
	// value defaults to the measured 63 s; PreemptOverhead: Zero makes
	// preemption free.
	PreemptOverhead float64

	// StabilityBonus overrides the MCKP current-allocation damping factor
	// (§5.2 allocator). Zero value defaults to 1.08; 1 disables the
	// damping (the ablations sweep this — per-config, so concurrent runs
	// stay independent).
	StabilityBonus float64
	// Phase2MaxItems overrides the MCKP items generated per elastic job.
	// Zero value defaults to 8.
	Phase2MaxItems int

	// Audit enables the invariant audit layer (internal/invariant): after
	// every simulator event the full conservation/legality suite —
	// GPU/worker conservation, lifecycle legality, queue order, progress
	// bounds, pool membership — is checked, and the run panics with a
	// structured expected-vs-actual report on the first violation. All
	// tests run with Audit on; it defaults to off so benchmarks and the
	// headline experiment harness keep the unchanged hot path. Results
	// are bit-identical either way (auditing only reads state).
	Audit bool

	// Events enables the structured event recorder (internal/obs): the
	// run emits the full decision trace — job lifecycle with causes,
	// orchestrator loan/reclaim instructions, scheduler epoch summaries,
	// reclaim knapsack picks, faults — as deterministic JSONL in
	// Report.Events. Events carry simulated time only, so two runs of the
	// same config and trace produce byte-identical streams. Off by
	// default; the disabled cost is a nil check per emission site, the
	// same discipline as Audit. Results are bit-identical either way
	// (recording only reads state).
	Events bool

	// Faults is the deterministic fault-injection plan. The zero plan (the
	// default) injects nothing and costs one check at engine start; an
	// enabled plan adds seeded server crashes/recoveries to the event queue
	// and stamps straggler slowdowns, all pre-generated from Faults.Seed so
	// runs stay reproducible and memoizable. Normalize applies the plan's
	// own defaults (e.g. MTTR 600 s when crashes are on); Validate rejects
	// out-of-domain rates.
	Faults FaultPlan

	// Degraded-mode policies (DESIGN.md §13), each independently
	// toggleable and off by default — off is bit-identical to the
	// pre-policy system. All new fields are omitted from the canonical
	// JSON form when zero, so runner cache keys of pre-existing specs are
	// unchanged.
	//
	// RestartBackoff holds a crash-preempted job out of the pending queue
	// for min(BackoffBase·2^N, BackoffCap) seconds (N = its prior crash
	// count), bounding the concurrent-restart storm after a correlated
	// outage. BackoffBase/BackoffCap zero default to 60/1800 when the
	// policy is on; Normalize zeroes them when it is off.
	RestartBackoff bool    `json:",omitempty"`
	BackoffBase    float64 `json:",omitempty"`
	BackoffCap     float64 `json:",omitempty"`
	// QuarantineHysteresis delays the recovery of a server that crashed
	// HystCrashes times within the trailing HystWindow seconds by a
	// hold-down of HystHold seconds, again at each refused retry. Zero knobs
	// default to 3 crashes / 3600 s window / 900 s hold when the policy
	// is on; Normalize zeroes them when it is off.
	QuarantineHysteresis bool    `json:",omitempty"`
	HystCrashes          int     `json:",omitempty"`
	HystWindow           float64 `json:",omitempty"`
	HystHold             float64 `json:",omitempty"`
	// EmergencyReclaim raises the orchestrator's loan target when healthy
	// training capacity falls below the running jobs' gang floor, pulling
	// loaned capacity in ahead of the normal idle-return path (still
	// capped by the inference scheduler's target). Only meaningful with
	// Loaning; Normalize clears it otherwise.
	EmergencyReclaim bool `json:",omitempty"`

	// TrainingShards / InferenceShards partition the cluster into a
	// sharded topology (DESIGN.md §14): each shard is its own indexed
	// cluster with a scheduler instance over purely local state, and the
	// global capacity arbitrator (internal/arbiter) routes arriving jobs
	// and brokers cross-shard loans. Zero/zero (the default, omitted from
	// runner cache keys) runs the classic single-cluster engine; a
	// 1-training+1-inference topology reproduces its event stream
	// byte-for-byte through the sharded machinery. Shard scheduler epochs
	// run inline on the engine goroutine, in shard ID order.
	TrainingShards  int `json:",omitempty"`
	InferenceShards int `json:",omitempty"`

	Seed int64

	// DefaultsApplied records that Normalize has run: every "zero means
	// default" rule above has been resolved, so a zero field now means a
	// literal zero. Run normalizes un-normalized configs automatically;
	// construct a config with DefaultsApplied set only if every field is
	// meant literally.
	DefaultsApplied bool
}

// Normalize returns the config with every default applied and the Zero
// sentinels resolved to literal zeros, marked DefaultsApplied. It is
// idempotent, and Run applies it automatically; call it directly when two
// configs must be compared or hashed canonically (the experiment runner
// does, so that semantically equal configs share one cache entry).
func (c Config) Normalize() Config {
	if !c.DefaultsApplied {
		if c.Scheduler == "" {
			c.Scheduler = SchedLyra
		}
		if c.Scaling == (ScalingModel{}) {
			c.Scaling = ScalingModel{HeteroPenalty: 0.7}
		}
		if c.Scaling.HeteroPenalty == 0 {
			c.Scaling.HeteroPenalty = 1
		}
		if c.Headroom == 0 {
			c.Headroom = 0.02
		}
		if c.SchedInterval == 0 {
			c.SchedInterval = 60
		}
		if c.OrchInterval == 0 {
			c.OrchInterval = 300
		}
		if c.PreemptOverhead == 0 {
			c.PreemptOverhead = 63
		}
		if c.StabilityBonus == 0 {
			c.StabilityBonus = alloc.StabilityBonus
		}
		if c.Phase2MaxItems == 0 {
			c.Phase2MaxItems = alloc.Phase2MaxItems
		}
		if c.Loaning && c.Reclaim == "" {
			c.Reclaim = ReclaimLyra
		}
	}
	// Sentinels resolve on every pass so a hand-built DefaultsApplied
	// config may still use them.
	if c.Headroom == Zero {
		c.Headroom = 0
	}
	if c.PreemptOverhead == Zero {
		c.PreemptOverhead = 0
	}
	if !c.Loaning {
		c.Reclaim = ""
	}
	// Degraded-mode knobs canonicalize on every pass (idempotent, like the
	// fault plan): an off policy zeroes its knobs so semantically equal
	// configs hash equal, an on policy fills its defaults.
	if c.RestartBackoff {
		if c.BackoffBase == 0 {
			c.BackoffBase = 60
		}
		if c.BackoffCap == 0 {
			c.BackoffCap = 1800
		}
	} else {
		c.BackoffBase, c.BackoffCap = 0, 0
	}
	if c.QuarantineHysteresis {
		if c.HystCrashes == 0 {
			c.HystCrashes = 3
		}
		if c.HystWindow == 0 {
			c.HystWindow = 3600
		}
		if c.HystHold == 0 {
			c.HystHold = 900
		}
	} else {
		c.HystCrashes, c.HystWindow, c.HystHold = 0, 0, 0
	}
	if !c.Loaning {
		c.EmergencyReclaim = false
	}
	c.Faults = c.Faults.Normalize()
	c.DefaultsApplied = true
	return c
}

// Validate reports the first problem that would otherwise surface as a
// panic or a silently wrong run deep inside Run: unknown scheme kinds (with
// the registered alternatives listed), out-of-range fractions, and
// non-positive intervals. It validates the normalized form, so zero-valued
// fields are fine. Every error names the offending field and the rejected
// value, so spec-file compilation (ScenarioSpec.Compile) can point at the
// exact field of the exact scheme entry that produced it.
func (c Config) Validate() error {
	// A non-finite value is rejected first and by name, as written: NaN
	// passes every range comparison below.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Scaling.PerWorkerLoss", c.Scaling.PerWorkerLoss}, {"Scaling.HeteroPenalty", c.Scaling.HeteroPenalty},
		{"Scaling.TunedGain", c.Scaling.TunedGain}, {"FracWrongEstimate", c.FracWrongEstimate},
		{"MaxEstimateError", c.MaxEstimateError}, {"Headroom", c.Headroom}, {"MaxTime", c.MaxTime},
		{"PreemptOverhead", c.PreemptOverhead}, {"StabilityBonus", c.StabilityBonus},
		{"BackoffBase", c.BackoffBase}, {"BackoffCap", c.BackoffCap},
		{"HystWindow", c.HystWindow}, {"HystHold", c.HystHold},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("lyra: %s %v is not finite", f.name, f.v)
		}
	}
	n := c.Normalize()
	if !n.Scheduler.Valid() {
		return fmt.Errorf("lyra: Scheduler: unknown scheduler %q (valid: %s)", n.Scheduler, kindList(Schedulers()))
	}
	if n.Loaning && !n.Reclaim.Valid() {
		return fmt.Errorf("lyra: Reclaim: unknown reclaim policy %q (valid: %s)", n.Reclaim, kindList(Reclaims()))
	}
	// Optimal refuses candidate sets beyond its search bound, and a refused
	// plan reclaims nothing: the loan would outlive the inference cap.
	if n.Loaning && n.Reclaim == ReclaimOptimal && n.Cluster.InferenceServers > reclaim.MaxOptimalServers {
		return fmt.Errorf("lyra: Reclaim: %q searches at most %d on-loan servers, but Cluster.InferenceServers is %d", n.Reclaim, reclaim.MaxOptimalServers, n.Cluster.InferenceServers)
	}
	if c.Cluster.TrainingServers < 0 || c.Cluster.InferenceServers < 0 {
		return fmt.Errorf("lyra: Cluster: negative cluster size %+v", c.Cluster)
	}
	if n.SchedInterval <= 0 {
		return fmt.Errorf("lyra: SchedInterval %d must be positive (zero value selects the 60 s default; an explicit zero interval is meaningless)", n.SchedInterval)
	}
	if n.OrchInterval <= 0 {
		return fmt.Errorf("lyra: OrchInterval %d must be positive (zero value selects the 300 s default)", n.OrchInterval)
	}
	if n.MaxTime < 0 {
		return fmt.Errorf("lyra: MaxTime %v negative (0 means the simulator default)", n.MaxTime)
	}
	if n.Headroom < 0 || n.Headroom > 1 {
		return fmt.Errorf("lyra: Headroom %v outside [0, 1] (use lyra.Zero for an explicit zero)", n.Headroom)
	}
	if n.PreemptOverhead < 0 {
		return fmt.Errorf("lyra: PreemptOverhead %v negative (use lyra.Zero for an explicit zero)", n.PreemptOverhead)
	}
	if n.FracWrongEstimate < 0 || n.FracWrongEstimate > 1 {
		return fmt.Errorf("lyra: FracWrongEstimate %v outside [0, 1]", n.FracWrongEstimate)
	}
	if n.MaxEstimateError < 0 {
		return fmt.Errorf("lyra: MaxEstimateError %v negative", n.MaxEstimateError)
	}
	if n.Scaling.HeteroPenalty < 0 || n.Scaling.HeteroPenalty > 1 {
		return fmt.Errorf("lyra: Scaling.HeteroPenalty %v outside [0, 1]", n.Scaling.HeteroPenalty)
	}
	if n.Scaling.PerWorkerLoss < 0 || n.Scaling.PerWorkerLoss >= 1 {
		return fmt.Errorf("lyra: Scaling.PerWorkerLoss %v outside [0, 1)", n.Scaling.PerWorkerLoss)
	}
	if n.StabilityBonus <= 0 {
		return fmt.Errorf("lyra: StabilityBonus %v must be positive (1 disables the damping)", n.StabilityBonus)
	}
	// A job's group holds up to Phase2MaxItems spaced items plus its current
	// allocation; the solver indexes a group's items in an int16.
	if n.Phase2MaxItems < 1 || n.Phase2MaxItems >= knapsack.MaxGroupItems {
		return fmt.Errorf("lyra: Phase2MaxItems %d outside [1, %d]", n.Phase2MaxItems, knapsack.MaxGroupItems-1)
	}
	if n.RestartBackoff {
		if n.BackoffBase <= 0 {
			return fmt.Errorf("lyra: BackoffBase %v must be positive with RestartBackoff on (zero selects the 60 s default)", n.BackoffBase)
		}
		if n.BackoffCap < n.BackoffBase {
			return fmt.Errorf("lyra: BackoffCap %v must be at least BackoffBase (%v)", n.BackoffCap, n.BackoffBase)
		}
	}
	if n.QuarantineHysteresis {
		if n.HystCrashes < 1 {
			return fmt.Errorf("lyra: HystCrashes %d must be at least 1 with QuarantineHysteresis on", n.HystCrashes)
		}
		if n.HystWindow <= 0 {
			return fmt.Errorf("lyra: HystWindow %v must be positive with QuarantineHysteresis on", n.HystWindow)
		}
		if n.HystHold <= 0 {
			return fmt.Errorf("lyra: HystHold %v must be positive with QuarantineHysteresis on", n.HystHold)
		}
	}
	// The plan as written, not as normalized: a NaN or negative rate reads
	// as "disabled" and would be canonicalized away before it was seen.
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("lyra: Faults: %w", err)
	}
	if n.TrainingShards < 0 || n.InferenceShards < 0 {
		return fmt.Errorf("lyra: negative shard count (training %d, inference %d)", n.TrainingShards, n.InferenceShards)
	}
	if (n.TrainingShards > 0) != (n.InferenceShards > 0) {
		return fmt.Errorf("lyra: sharded topologies need at least one shard on both sides (training %d, inference %d)", n.TrainingShards, n.InferenceShards)
	}
	if n.TrainingShards > 0 {
		if n.TrainingShards > n.Cluster.TrainingServers {
			return fmt.Errorf("lyra: TrainingShards %d exceeds TrainingServers %d", n.TrainingShards, n.Cluster.TrainingServers)
		}
		if n.InferenceShards > n.Cluster.InferenceServers {
			return fmt.Errorf("lyra: InferenceShards %d exceeds InferenceServers %d", n.InferenceShards, n.Cluster.InferenceServers)
		}
	}
	return nil
}

// DefaultConfig returns the full Lyra system at production scale: SJF+MCKP
// scheduling, elastic scaling, capacity loaning with the knapsack-based
// reclaiming heuristic.
func DefaultConfig() Config {
	return Config{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: SchedLyra,
		Elastic:   true,
		Loaning:   true,
		Reclaim:   ReclaimLyra,
		Scaling:   ScalingModel{HeteroPenalty: 0.7, PerWorkerLoss: 0},
		Headroom:  0.02,
	}
}

// BaselineConfig returns the paper's Baseline: FIFO, no loaning, no elastic
// scaling.
func BaselineConfig() Config {
	return Config{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: SchedFIFO,
		Scaling:   ScalingModel{HeteroPenalty: 0.7},
		Headroom:  0.02,
	}
}

// Report is the per-run result bundle in the units the paper reports, from
// either substrate: Run and RunTestbed build it with the same code. What
// only the simulator samples — TrainUsage, OverallUsage, OnLoanUsage and the
// OnLoanQueue / OnLoanJCT subsets — stays zero on a prototype run; what only
// the prototype counts (containers, absorbed launch failures, the servers
// each scheduler controls at exit) is the Raw.Prototype block, nil on a
// simulator run.
type Report struct {
	Queue Summary // queuing time, seconds
	JCT   Summary // job completion time, seconds

	// OnLoanQueue and OnLoanJCT cover only jobs that ran on on-loan
	// servers (Table 7).
	OnLoanQueue Summary
	OnLoanJCT   Summary

	TrainUsage   float64 // mean training-cluster GPU usage
	OverallUsage float64 // mean combined usage
	OnLoanUsage  float64 // mean on-loan server usage (Figure 9)

	Preemptions        int
	PreemptionRatio    float64
	ScalingOps         int
	CollateralDamage   float64
	FlexSatisfiedShare float64

	Completed int
	Total     int

	// Crashes / Recoveries count injected server failures applied and
	// quarantined servers returned to service (zero without a fault plan).
	Crashes    int
	Recoveries int
	// LostCapacityGPUSec is the GPU-seconds of capacity spent quarantined
	// over the run (including servers still down at the end) — the
	// lost-capacity-time metric reported by the domainsweep experiment,
	// counted the same way on both substrates (sim.LostCapacity).
	LostCapacityGPUSec float64

	// Events is the recorded JSONL event stream when Config.Events was
	// set (nil otherwise): one deterministic JSON object per line, byte-
	// identical across runs of the same config and trace. Decode it with
	// obs.ReadJSONL or query it with cmd/lyra-events.
	Events []byte

	// Prof is the wall-clock self-timing report when the run was profiled
	// (RunProfiled with a live profiler; nil otherwise). Wall-clock spans
	// are kept strictly outside the deterministic Events stream, so a
	// profiled run's Events are byte-identical to an unprofiled one.
	Prof *prof.Report

	// Raw exposes the underlying result for the experiments harness (usage
	// time series, hourly queued ratios, reclaim operations, the
	// prototype's own counters...).
	Raw *sim.Result
}

// Run replays tr under cfg and returns the report. The jobs of the trace
// that can arrive by MaxTime are cloned, so the same trace can be reused
// across schemes. The config is normalized (Normalize) and validated
// (Validate) first, so misconfigured runs fail fast with the registered
// alternatives listed instead of panicking mid-simulation.
//
// Invariant violations (Config.Audit, or the always-on hot-path checks) are
// returned as a *obs.ViolationError — the structured audit report plus,
// when Config.Events is set, the tail of the event ring for the lead-up
// context — instead of escaping as a raw panic.
func Run(cfg Config, tr *Trace) (rep *Report, err error) {
	return RunProfiled(cfg, tr, Mix{}, nil)
}

// RunProfiled is Run under a workload mix, with an optional wall-clock span
// profiler (internal prof package, the CLIs' -prof/-trace flags); Mix{} and
// a nil profiler are exactly Run. The mix adapts cfg and the run's own copy
// of tr, never tr, so concurrent runs may share one trace. The profiler is
// not part of Config, which the runner's cache hashes: instrumentation must
// never change a run's identity. The report's Prof field carries the
// self-timing snapshot; the profiler keeps the raw spans for Chrome traces.
func RunProfiled(cfg Config, tr *Trace, m Mix, p *prof.Profiler) (rep *Report, err error) {
	if err := m.Apply(&cfg, nil); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	psp := p.Start("prepare")
	r := newRun(cfg, tr, cfg.MaxTime, m)
	defer r.recoverViolation(&err)

	// Post-normalization the config's zero values are literal; the
	// simulator still treats zero as "default", so explicit zeros cross
	// the boundary as the simulator's own negative sentinel.
	preempt := cfg.PreemptOverhead
	if preempt == 0 {
		preempt = -1
	}
	simCfg := sim.Config{
		SchedInterval:   cfg.SchedInterval,
		OrchInterval:    cfg.OrchInterval,
		MaxTime:         cfg.MaxTime,
		PreemptOverhead: preempt,
		Scaling:         cfg.Scaling,
		Audit:           cfg.Audit,
		Obs:             r.rec,
		Prof:            p,
		TraceJobs:       len(tr.Jobs),
		// Normalize zeroes the knobs of a policy that is off.
		BackoffBase: cfg.BackoffBase,
		BackoffCap:  cfg.BackoffCap,
		HystCrashes: cfg.HystCrashes,
		HystWindow:  cfg.HystWindow,
		HystHold:    cfg.HystHold,
	}
	if cfg.Faults.Enabled() {
		fp := cfg.Faults
		simCfg.Faults = &fp
	}
	// The two kinds of run differ only in how they cut the cluster.
	var eng *sim.Engine
	if cfg.TrainingShards > 0 {
		eng = shardedEngine(cfg, r.tr, simCfg)
	} else {
		eng = oneStateEngine(cfg, r.tr, simCfg)
	}
	psp.End()
	psp = p.Start("sim")
	res := eng.Run()
	psp.End()
	psp = p.Start("report")
	rep = newReport(res, len(tr.Jobs))
	psp.End()
	rep.Prof = p.Report()
	return r.finish(rep)
}

// newReport renders a run's result in the units the paper reports — the one
// place either substrate's sim.Result becomes a Report. total is the trace's
// job count, which res.Jobs falls short of when the run had a cap.
func newReport(res *sim.Result, total int) *Report {
	return &Report{
		Queue:              res.QueuingSummary(),
		JCT:                res.JCTSummary(),
		OnLoanQueue:        res.OnLoanQueuingSummary(),
		OnLoanJCT:          res.OnLoanJCTSummary(),
		TrainUsage:         res.MeanTrainUsage(),
		OverallUsage:       res.MeanOverallUsage(),
		OnLoanUsage:        res.MeanOnLoanUsage(),
		Preemptions:        res.Preemptions,
		PreemptionRatio:    res.PreemptionRatio,
		ScalingOps:         res.ScalingOps,
		CollateralDamage:   res.CollateralDamage,
		FlexSatisfiedShare: res.FlexSatisfiedShare,
		Completed:          res.Completed,
		Total:              total,
		Crashes:            res.Crashes,
		Recoveries:         res.Recoveries,
		LostCapacityGPUSec: res.LostCapacityGPUSec,
		Raw:                res,
	}
}

// run is the prelude Run and RunTestbed share, built from a normalized and
// validated config: a private copy of the trace's jobs that can arrive by
// maxTime (sim.Reachable; 0 copies them all), mixed by m — each knob draws
// per job in job order, so the prefix gets what the whole trace would — and
// annotated with running-time estimates, and, when Config.Events is set,
// the recorder writing JSONL (jw → buf) beside the ring for a violation.
type run struct {
	tr   *Trace
	rec  *obs.Recorder
	ring *obs.Ring
	jw   *obs.JSONLWriter
	buf  bytes.Buffer
}

func newRun(cfg Config, tr *Trace, maxTime float64, m Mix) *run {
	reach := *tr
	reach.Jobs = sim.Reachable(tr.Jobs, maxTime)
	r := &run{tr: reach.Clone()}
	_ = m.Apply(nil, r.tr) // the caller has validated m on the config
	if cfg.Events {
		r.ring, r.jw = obs.NewRing(128), obs.NewJSONLWriter(&r.buf)
		r.rec = obs.NewRecorder(r.jw, r.ring)
	}
	predict.WithError(cfg.FracWrongEstimate, cfg.MaxEstimateError, cfg.Seed+77).Annotate(r.tr.Jobs)
	return r
}

// finish hands rep the event stream, or fails on the writer's latched error.
func (r *run) finish(rep *Report) (*Report, error) {
	if r.jw != nil && r.jw.Err() != nil {
		return nil, fmt.Errorf("lyra: Events: %w", r.jw.Err())
	}
	rep.Events = r.buf.Bytes() // nil when recording was off
	return rep, nil
}

// recoverViolation, deferred by an entry point, returns an invariant panic
// as a *obs.ViolationError carrying the ring's tail; any other panic passes
// through.
func (r *run) recoverViolation(err *error) {
	p := recover()
	if p == nil {
		return
	}
	ie, ok := p.(*invariant.Error)
	if !ok {
		panic(p)
	}
	*err = &obs.ViolationError{Report: ie, Tail: r.ring.Tail(32)}
}

// oneStateEngine puts the whole configured cluster in one state.
func oneStateEngine(cfg Config, tr *Trace, simCfg sim.Config) *sim.Engine {
	s, orch, infSched := oneStateScheme(cfg, tr.Horizon, 1, simCfg.Prof)
	var seat sim.Orchestrator
	if orch != nil {
		seat = orch
	}
	simCfg.InferenceUtil = infSched.UtilizationAt
	return sim.New(cluster.New(cfg.Cluster), tr.Jobs, tr.Horizon, s, seat, simCfg)
}

// oneStateScheme assembles the scheme cfg selects over one undivided
// cluster: the scheduler, the inference pool, and the orchestrator over both
// when loaning is on (nil otherwise). It is the one assembly both substrates
// run — the simulator's one-state engine at compress 1, the prototype's
// tick loop at TestbedOptions.UtilCompress. p is the run's profiler (nil on
// the prototype).
func oneStateScheme(cfg Config, horizon int64, compress int, p *prof.Profiler) (sim.Scheduler, *orchestrator.Orchestrator, *inference.Scheduler) {
	s := schedulerRegistry[cfg.Scheduler](cfg)
	infSched, targeter := inferenceSide(cfg, horizon, cfg.Cluster.InferenceServers, 0, compress, p)
	if !cfg.Loaning {
		return s, nil, infSched
	}
	return s, &orchestrator.Orchestrator{Inf: targeter, Loans: loanProtocol(cfg, s.Less)}, infSched
}

// inferenceSide builds one inference pool's utilization series and loan
// targeter. Shard 0 keeps the base seeds (Seed+13, and Seed+19 for the
// forecaster), so every topology with one inference pool sees the same
// series; higher shards get salted, decorrelated streams. compress > 1
// squeezes the diurnal curve in time — every compress-th sample of a series
// generated compress times as long — so a run of a few simulated hours
// still sees whole loan/reclaim cycles. Training the forecaster is the
// forecast.fit span of p.
func inferenceSide(cfg Config, horizon int64, servers, shard, compress int, p *prof.Profiler) (*inference.Scheduler, orchestrator.LoanTargeter) {
	salt := int64(101 * shard)
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(cfg.Seed+13+salt), horizon*int64(compress), 300)
	if compress > 1 {
		full := util.Values
		util = metrics.NewTimeSeries(0, 300)
		for i := 0; i < len(full); i += compress {
			util.Append(full[i])
		}
	}
	is := inference.NewScheduler(util, servers, cfg.Headroom)
	if cfg.ProactiveReclaim {
		sp := p.Start("forecast.fit")
		defer sp.End()
		return is, orchestrator.NewForecaster(is, cfg.Seed+19+salt)
	}
	return is, is
}

// loanProtocol is the loan policy cfg selects, shared by the orchestrator
// and the arbiter.
func loanProtocol(cfg Config, less func(a, b *job.Job) bool) orchestrator.Loans {
	return orchestrator.Loans{
		Policy:               reclaimRegistry[cfg.Reclaim](cfg),
		Less:                 less,
		IncludeElasticDemand: cfg.Elastic && cfg.Scheduler != SchedFIFO,
		LoanOnlyDemand:       cfg.Opportunistic,
		EmergencyReclaim:     cfg.EmergencyReclaim,
	}
}
