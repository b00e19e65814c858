package lyra

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"lyra/internal/cluster"
	"lyra/internal/trace"
)

// specVersion is the current ScenarioSpec schema version. LoadSpec rejects
// other versions so a future incompatible schema change cannot silently
// misread old files.
const specVersion = 1

// ScenarioSpec is the declarative form of one evaluation scenario: the
// cluster shape, the synthesized workload, the workload-mix knobs, an
// optional fault plan, the scheme matrix to run over it, and the SLO
// assertions every cell must meet. Specs are JSON documents, loaded with
// LoadSpec/ParseSpec, and compiled with Compile into one CompiledCell per scheme×reclaim
// combination; internal/runner executes compiled cells as a memoized
// parallel matrix and evaluates the SLOs (cmd/lyra-matrix is the CLI).
//
// Compilation goes through Config.Normalize and Config.Validate, so a
// spec-compiled cell is byte-identical — including its content-addressed
// runner cache key — to the equivalent hand-built Config.
type ScenarioSpec struct {
	// Version must be 1, the current schema version.
	Version int `json:"version"`
	// Name labels the scenario in reports and cache keys do not use it.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed is the base random seed: it seeds the scheme configs and is the
	// default for the trace, scenario (+100), workload-mix (+200) and
	// fault seeds.
	Seed int64 `json:"seed,omitempty"`

	Cluster ClusterSpec `json:"cluster"`

	// Shards selects the sharded multi-cluster engine (DESIGN.md §14) for
	// every cell. Absent (or zero/zero) keeps the classic single-cluster
	// engine and leaves cache keys untouched.
	Shards ShardSpec `json:"shards,omitempty"`

	Trace TraceSpec `json:"trace,omitempty"`

	// Scenario optionally adapts config and trace to one of the §7.1
	// evaluation scenarios (ScenarioKind). ScenarioSeed defaults to
	// Seed+100, matching the CLI convention.
	Scenario     string `json:"scenario,omitempty"`
	ScenarioSeed int64  `json:"scenario_seed,omitempty"`

	// Workload applies the Figures 11-16 mix knobs after scenario
	// adaptation.
	Workload MixSpec `json:"workload,omitempty"`

	// Faults is a fault-injection plan in the CLI syntax
	// ("mtbf=21600,mttr=600,straggler=0.1"); FaultSeed (default Seed)
	// seeds it when the plan itself carries no seed. A scheme entry can
	// override the plan per cell.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// Schemes is the matrix axis: one entry per scheme, each optionally
	// expanded over a reclaim-policy list.
	Schemes []SchemeSpec `json:"schemes"`

	// SLO asserts bounds on every cell's report; a scheme entry's SLO
	// replaces it for that cell.
	SLO SLOSpec `json:"slo,omitempty"`
}

// ClusterSpec sizes the two clusters (8-GPU servers unless overridden).
// RackSize and ZoneRacks shape the failure-domain topology for correlated
// outage plans (rackout=/zoneout= fault keys); zero keeps the defaults
// (8 servers per rack, 4 racks per zone).
type ClusterSpec struct {
	TrainingServers  int `json:"training_servers"`
	InferenceServers int `json:"inference_servers"`
	GPUsPerServer    int `json:"gpus_per_server,omitempty"`
	RackSize         int `json:"rack_size,omitempty"`
	ZoneRacks        int `json:"zone_racks,omitempty"`
	// TrainingGPU and InferenceGPU name the GPU generation of each tier
	// ("V100", "T4", "A100", case-insensitive). Absent keeps the paper's
	// V100/T4 pairing; mixed-generation topologies (e.g. A100 training over
	// T4 inference) change the speed and memory model job placement sees.
	TrainingGPU  string `json:"training_gpu,omitempty"`
	InferenceGPU string `json:"inference_gpu,omitempty"`
}

// ShardSpec partitions the topology into independently scheduled shards
// routed by the global capacity arbitrator. Both counts must be set
// together; zero/zero is the unsharded run (one state).
type ShardSpec struct {
	Training  int `json:"training,omitempty"`
	Inference int `json:"inference,omitempty"`
}

// TraceSpec parameterizes synthetic trace generation. Zero values fall back
// to the paper's calibration (15 days, load 0.83, 21% fungible, 5% elastic)
// with TrainingGPUs derived from the cluster spec; the fraction fields are
// pointers so an explicit 0 ("no fungible jobs") is distinguishable from
// "use the default".
type TraceSpec struct {
	Days         int      `json:"days,omitempty"`
	LoadFactor   float64  `json:"load_factor,omitempty"`
	TrainingGPUs int      `json:"training_gpus,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	FracFungible *float64 `json:"frac_fungible,omitempty"`
	FracElastic  *float64 `json:"frac_elastic,omitempty"`
	FracHetero   *float64 `json:"frac_hetero,omitempty"`
	FracCheckpt  *float64 `json:"frac_checkpoint,omitempty"`
	MaxJobGPUs   int      `json:"max_job_gpus,omitempty"`
}

// MixSpec is the post-scenario workload-mix adaptation: each set fraction
// rewrites the per-job capability flags deterministically in Seed (default
// spec Seed+200), through Mix.Apply.
type MixSpec struct {
	HeteroFrac     *float64 `json:"hetero_frac,omitempty"`
	ElasticFrac    *float64 `json:"elastic_frac,omitempty"`
	CheckpointFrac *float64 `json:"checkpoint_frac,omitempty"`
	Seed           int64    `json:"seed,omitempty"`
}

// SchemeSpec declares one scheme column of the matrix. The zero value is
// the default Lyra configuration path: scheduler defaults to "lyra" via
// Config.Normalize; elastic/loaning default to off like the Config zero
// value, so spec files state capabilities explicitly.
type SchemeSpec struct {
	// Name labels the cell (default: the scheduler kind, plus the reclaim
	// kind when Reclaims expands the entry).
	Name      string `json:"name,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Elastic   bool   `json:"elastic,omitempty"`
	Loaning   bool   `json:"loaning,omitempty"`
	// Reclaim picks one reclaiming policy; Reclaims expands this entry
	// into one cell per listed policy (the Aryl-style scheme×reclaim
	// matrix). Setting both is an error.
	Reclaim  string   `json:"reclaim,omitempty"`
	Reclaims []string `json:"reclaims,omitempty"`

	Opportunistic    bool `json:"opportunistic,omitempty"`
	Tuned            bool `json:"tuned,omitempty"`
	NaivePlacement   bool `json:"naive_placement,omitempty"`
	ProactiveReclaim bool `json:"proactive_reclaim,omitempty"`
	InfoAgnostic     bool `json:"info_agnostic,omitempty"`

	// Degraded-mode policies (DESIGN.md §13), each mapping to the Config
	// toggle of the same name with its Normalize defaults.
	RestartBackoff       bool `json:"restart_backoff,omitempty"`
	QuarantineHysteresis bool `json:"quarantine_hysteresis,omitempty"`
	EmergencyReclaim     bool `json:"emergency_reclaim,omitempty"`

	// ScalingLoss, HeteroPenalty and TunedGain fill the ScalingModel
	// (zero HeteroPenalty keeps the Normalize defaulting rules).
	ScalingLoss   float64 `json:"scaling_loss,omitempty"`
	HeteroPenalty float64 `json:"hetero_penalty,omitempty"`
	TunedGain     float64 `json:"tuned_gain,omitempty"`

	// Headroom and the interval/overhead fields follow Config's
	// zero-means-default rules (lyra.Zero = -1 requests a literal zero).
	Headroom        float64 `json:"headroom,omitempty"`
	SchedInterval   int64   `json:"sched_interval,omitempty"`
	OrchInterval    int64   `json:"orch_interval,omitempty"`
	PreemptOverhead float64 `json:"preempt_overhead,omitempty"`
	MaxTime         float64 `json:"max_time,omitempty"`

	// Faults overrides the spec-level fault plan for this scheme's cells.
	Faults string `json:"faults,omitempty"`

	// SLO replaces the spec-level SLO for this scheme's cells.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// SLOSpec asserts bounds on a cell's Report (and the harness wall time).
// Zero-valued bounds are unchecked; LostJobs is a pointer so "lost_jobs": 0
// asserts the zero-lost-jobs invariant while an absent key asserts nothing.
type SLOSpec struct {
	QueuingMeanHours      float64 `json:"queuing_mean_hours,omitempty"`
	QueuingP99Hours       float64 `json:"queuing_p99_hours,omitempty"`
	JCTMeanHours          float64 `json:"jct_mean_hours,omitempty"`
	JCTP99Hours           float64 `json:"jct_p99_hours,omitempty"`
	LostJobs              *int    `json:"lost_jobs,omitempty"`
	MinCompletedFrac      float64 `json:"min_completed_frac,omitempty"`
	MaxPreemptionRatio    float64 `json:"max_preemption_ratio,omitempty"`
	WallTimeBudgetSeconds float64 `json:"wall_time_budget_seconds,omitempty"`
}

// Empty reports whether the SLO asserts nothing.
func (s SLOSpec) Empty() bool { return s == SLOSpec{} }

// Tighten scales every upper bound by f (lower bounds and the lost-jobs
// count are left alone). cmd/lyra-matrix -tighten uses it to prove the
// failure path of the harness: any passing matrix must fail under a
// sufficiently small f.
func (s SLOSpec) Tighten(f float64) SLOSpec {
	s.QueuingMeanHours *= f
	s.QueuingP99Hours *= f
	s.JCTMeanHours *= f
	s.JCTP99Hours *= f
	s.MaxPreemptionRatio *= f
	s.WallTimeBudgetSeconds *= f
	return s
}

// SLOViolation is one failed assertion: the bound from the spec and the
// measured value that broke it.
type SLOViolation struct {
	Assert   string  `json:"assert"`
	Bound    float64 `json:"bound"`
	Measured float64 `json:"measured"`
}

func (v SLOViolation) String() string {
	return fmt.Sprintf("%s: measured %.4g exceeds bound %.4g", v.Assert, v.Measured, v.Bound)
}

// Evaluate checks the report (and the harness wall time) against every set
// bound and returns the violations, nil when all pass. Time bounds are in
// hours to match the spec keys; Report summaries are in seconds.
func (s SLOSpec) Evaluate(rep *Report, wall time.Duration) []SLOViolation {
	var out []SLOViolation
	over := func(assert string, bound, measured float64) {
		if bound > 0 && measured > bound {
			out = append(out, SLOViolation{Assert: assert, Bound: bound, Measured: measured})
		}
	}
	over("queuing_mean_hours", s.QueuingMeanHours, rep.Queue.Mean/3600)
	over("queuing_p99_hours", s.QueuingP99Hours, rep.Queue.P99/3600)
	over("jct_mean_hours", s.JCTMeanHours, rep.JCT.Mean/3600)
	over("jct_p99_hours", s.JCTP99Hours, rep.JCT.P99/3600)
	over("max_preemption_ratio", s.MaxPreemptionRatio, rep.PreemptionRatio)
	over("wall_time_budget_seconds", s.WallTimeBudgetSeconds, wall.Seconds())
	if s.LostJobs != nil {
		if lost := rep.Total - rep.Completed; lost > *s.LostJobs {
			out = append(out, SLOViolation{Assert: "lost_jobs", Bound: float64(*s.LostJobs), Measured: float64(lost)})
		}
	}
	if s.MinCompletedFrac > 0 && rep.Total > 0 {
		if frac := float64(rep.Completed) / float64(rep.Total); frac < s.MinCompletedFrac {
			out = append(out, SLOViolation{Assert: "min_completed_frac", Bound: s.MinCompletedFrac, Measured: frac})
		}
	}
	return out
}

// CompiledCell is one scenario×scheme cell of a compiled spec: a validated,
// hand-built-equivalent Config plus the declarative trace and the workload
// adaptation internal/runner runs it with.
type CompiledCell struct {
	Spec string // scenario name
	Cell string // scheme label within the spec

	Config Config
	Trace  TraceConfig
	Mix    Mix

	SLO SLOSpec
}

// Label is "spec/cell", the cell's display name.
func (c CompiledCell) Label() string { return c.Spec + "/" + c.Cell }

// LoadSpec reads and parses a JSON scenario spec file. Errors carry the file
// path; structural problems carry the offending field.
func LoadSpec(path string) (*ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lyra: spec %s: %w", path, err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("lyra: spec %s: %w", path, err)
	}
	return s, nil
}

// ParseSpec parses a JSON scenario spec document. Unknown fields are
// rejected (a typo must not silently configure nothing), a decode error
// names the line it stopped at, and the spec is structurally validated;
// Compile performs the full per-cell Config validation.
func ParseSpec(data []byte) (*ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("line %d: %w", errorLine(data, err), err)
	}
	if err := s.validateStructure(); err != nil {
		return nil, err
	}
	return &s, nil
}

// unknownField prefixes encoding/json's error for a key no field takes.
const unknownField = "json: unknown field "

// errorLine maps a decode error to the 1-based line it points at: the
// offset a syntax or type error carries, the first place an unknown key is
// written, and otherwise (a truncated document) the end.
func errorLine(data []byte, err error) int {
	pos := int64(len(data))
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		pos = syn.Offset
	case errors.As(err, &typ):
		pos = typ.Offset
	case strings.HasPrefix(err.Error(), unknownField):
		key := regexp.QuoteMeta(strings.TrimPrefix(err.Error(), unknownField))
		if m := regexp.MustCompile(key + `\s*:`).FindIndex(data); m != nil {
			pos = int64(m[0])
		}
	}
	return 1 + bytes.Count(data[:min(pos, int64(len(data)))], []byte("\n"))
}

// validateStructure checks the spec skeleton — the parts Compile's
// per-cell Config.Validate cannot attribute to a spec field.
func (s *ScenarioSpec) validateStructure() error {
	if s.Version != specVersion {
		return fmt.Errorf("version: got %d, this build reads version %d", s.Version, specVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("name: required")
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("schemes: at least one scheme entry required")
	}
	if s.Cluster.TrainingServers <= 0 {
		return fmt.Errorf("cluster.training_servers: got %d, must be positive", s.Cluster.TrainingServers)
	}
	if s.Cluster.InferenceServers < 0 {
		return fmt.Errorf("cluster.inference_servers: got %d, must be non-negative", s.Cluster.InferenceServers)
	}
	for _, g := range []struct{ field, name string }{
		{"cluster.training_gpu", s.Cluster.TrainingGPU},
		{"cluster.inference_gpu", s.Cluster.InferenceGPU},
	} {
		if g.name == "" {
			continue
		}
		if _, err := cluster.ParseGPUType(g.name); err != nil {
			return fmt.Errorf("%s: %w", g.field, err)
		}
	}
	if s.Shards.Training < 0 || s.Shards.Inference < 0 {
		return fmt.Errorf("shards: got %d/%d, counts must be non-negative", s.Shards.Training, s.Shards.Inference)
	}
	if (s.Shards.Training > 0) != (s.Shards.Inference > 0) {
		return fmt.Errorf("shards: got training=%d inference=%d, sharded topologies need at least one shard on both sides", s.Shards.Training, s.Shards.Inference)
	}
	if s.Scenario != "" && !ScenarioKind(s.Scenario).Valid() {
		return fmt.Errorf("scenario: unknown scenario %q (valid: %v)", s.Scenario, Scenarios())
	}
	for _, f := range []struct {
		field string
		v     *float64
	}{
		{"trace.frac_fungible", s.Trace.FracFungible},
		{"trace.frac_elastic", s.Trace.FracElastic},
		{"trace.frac_hetero", s.Trace.FracHetero},
		{"trace.frac_checkpoint", s.Trace.FracCheckpt},
		{"workload.hetero_frac", s.Workload.HeteroFrac},
		{"workload.elastic_frac", s.Workload.ElasticFrac},
		{"workload.checkpoint_frac", s.Workload.CheckpointFrac},
	} {
		if f.v != nil && (*f.v < 0 || *f.v > 1) {
			return fmt.Errorf("%s: got %v, must be in [0, 1]", f.field, *f.v)
		}
	}
	for i, sch := range s.Schemes {
		if sch.Reclaim != "" && len(sch.Reclaims) > 0 {
			return fmt.Errorf("schemes[%d]: reclaim and reclaims are mutually exclusive", i)
		}
	}
	return nil
}

// Compile lowers the spec into one CompiledCell per scheme×reclaim
// combination. Every cell's Config passes Config.Validate (errors name the
// spec field path that produced the bad value), and compilation is a pure
// function of the spec — the same document always compiles to the same
// cells, which is what makes spec-driven runs memoize identically to
// hand-built ones.
func (s *ScenarioSpec) Compile() ([]CompiledCell, error) {
	if err := s.validateStructure(); err != nil {
		return nil, fmt.Errorf("lyra: spec %q: %w", s.Name, err)
	}

	basePlan, err := ResolveFaultPlan(s.Faults, s.FaultSeed, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("lyra: spec %q: faults: %w", s.Name, err)
	}

	gen := s.compileTrace()

	mix := Mix{Scenario: ScenarioKind(s.Scenario)}
	if mix.Scenario != "" {
		mix.ScenarioSeed = s.ScenarioSeed
		if mix.ScenarioSeed == 0 {
			mix.ScenarioSeed = s.Seed + 100
		}
	}
	mixSeed := s.Workload.Seed
	if mixSeed == 0 {
		mixSeed = s.Seed + 200
	}
	knob := func(f *float64) *FracKnob {
		if f == nil {
			return nil
		}
		return &FracKnob{Frac: *f, Seed: mixSeed}
	}
	mix.HeteroFrac = knob(s.Workload.HeteroFrac)
	mix.ElasticFrac = knob(s.Workload.ElasticFrac)
	mix.CheckpointFrac = knob(s.Workload.CheckpointFrac)

	var cells []CompiledCell
	for i, sch := range s.Schemes {
		reclaims := sch.Reclaims
		expand := len(reclaims) > 0
		if !expand {
			reclaims = []string{sch.Reclaim}
		}
		for _, rk := range reclaims {
			plan := basePlan
			if sch.Faults != "" {
				plan, err = ResolveFaultPlan(sch.Faults, s.FaultSeed, s.Seed)
				if err != nil {
					return nil, fmt.Errorf("lyra: spec %q: schemes[%d].faults: %w", s.Name, i, err)
				}
			}
			trainGPU, infGPU, err := s.compileGPUs()
			if err != nil {
				return nil, fmt.Errorf("lyra: spec %q: %w", s.Name, err)
			}
			cfg := Config{
				Cluster: ClusterConfig{
					TrainingServers:  s.Cluster.TrainingServers,
					InferenceServers: s.Cluster.InferenceServers,
					GPUsPerServer:    s.Cluster.GPUsPerServer,
					RackSize:         s.Cluster.RackSize,
					ZoneRacks:        s.Cluster.ZoneRacks,
					TrainingGPU:      trainGPU,
					InferenceGPU:     infGPU,
				},
				TrainingShards:   s.Shards.Training,
				InferenceShards:  s.Shards.Inference,
				Scheduler:        SchedulerKind(sch.Scheduler),
				Elastic:          sch.Elastic,
				Loaning:          sch.Loaning,
				Reclaim:          ReclaimKind(rk),
				Opportunistic:    sch.Opportunistic,
				Tuned:            sch.Tuned,
				NaivePlacement:   sch.NaivePlacement,
				ProactiveReclaim: sch.ProactiveReclaim,
				InfoAgnostic:     sch.InfoAgnostic,

				RestartBackoff:       sch.RestartBackoff,
				QuarantineHysteresis: sch.QuarantineHysteresis,
				EmergencyReclaim:     sch.EmergencyReclaim,
				Scaling: ScalingModel{
					PerWorkerLoss: sch.ScalingLoss,
					HeteroPenalty: sch.HeteroPenalty,
					TunedGain:     sch.TunedGain,
				},
				Headroom:        sch.Headroom,
				SchedInterval:   sch.SchedInterval,
				OrchInterval:    sch.OrchInterval,
				PreemptOverhead: sch.PreemptOverhead,
				MaxTime:         sch.MaxTime,
				Faults:          plan,
				Seed:            s.Seed,
			}
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("lyra: spec %q: schemes[%d] (%s): %w", s.Name, i, cellName(sch, rk, expand), err)
			}
			slo := s.SLO
			if sch.SLO != nil {
				slo = *sch.SLO
			}
			cells = append(cells, CompiledCell{
				Spec:   s.Name,
				Cell:   cellName(sch, rk, expand),
				Config: cfg,
				Trace:  gen,
				Mix:    mix,
				SLO:    slo,
			})
		}
	}
	return cells, nil
}

// cellName labels a cell: the scheme's name (default its scheduler kind),
// with the reclaim policy appended when a reclaims list expanded the entry.
func cellName(sch SchemeSpec, rk string, expanded bool) string {
	name := sch.Name
	if name == "" {
		name = sch.Scheduler
		if name == "" {
			name = string(SchedLyra)
		}
	}
	if expanded {
		name += "/" + rk
	}
	return name
}

// compileGPUs lowers the GPU generation names onto cluster.GPUType values.
// Both absent keeps the zero values (the paper's V100/T4 pairing via
// cluster.New's defaulting rule) so pre-existing specs keep their cache
// keys. An explicit training generation with inference_gpu absent keeps the
// T4 inference tier rather than falling back to the V100 zero value.
func (s *ScenarioSpec) compileGPUs() (train, inf cluster.GPUType, err error) {
	if s.Cluster.TrainingGPU != "" {
		if train, err = cluster.ParseGPUType(s.Cluster.TrainingGPU); err != nil {
			return 0, 0, fmt.Errorf("cluster.training_gpu: %w", err)
		}
	}
	if s.Cluster.InferenceGPU != "" {
		if inf, err = cluster.ParseGPUType(s.Cluster.InferenceGPU); err != nil {
			return 0, 0, fmt.Errorf("cluster.inference_gpu: %w", err)
		}
	} else if train != cluster.V100 {
		inf = cluster.T4
	}
	return train, inf, nil
}

// compileTrace lowers the trace section onto the paper-calibrated defaults,
// exactly as a hand-built DefaultTraceConfig + field overrides would.
func (s *ScenarioSpec) compileTrace() TraceConfig {
	seed := s.Trace.Seed
	if seed == 0 {
		seed = s.Seed
	}
	gen := trace.Default(seed)
	if s.Trace.Days != 0 {
		gen.Days = s.Trace.Days
	}
	if s.Trace.TrainingGPUs != 0 {
		gen.TrainingGPUs = s.Trace.TrainingGPUs
	} else {
		gpus := s.Cluster.GPUsPerServer
		if gpus == 0 {
			gpus = 8
		}
		gen.TrainingGPUs = s.Cluster.TrainingServers * gpus
	}
	if s.Trace.LoadFactor != 0 {
		gen.LoadFactor = s.Trace.LoadFactor
	}
	if s.Trace.FracFungible != nil {
		gen.FracFungible = *s.Trace.FracFungible
	}
	if s.Trace.FracElastic != nil {
		gen.FracElastic = *s.Trace.FracElastic
	}
	if s.Trace.FracHetero != nil {
		gen.FracHetero = *s.Trace.FracHetero
	}
	if s.Trace.FracCheckpt != nil {
		gen.FracCheckpoint = *s.Trace.FracCheckpt
	}
	if s.Trace.MaxJobGPUs != 0 {
		gen.MaxJobGPUs = s.Trace.MaxJobGPUs
	}
	return gen
}
