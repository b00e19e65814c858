package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lyra"
	"lyra/internal/experiments"
)

// outcome is what one repetition produced: the digest every other
// repetition of the same input must reproduce, the report the simulated
// statistics are read from, and how many jobs it simulated (0 where a
// per-job rate means nothing).
type outcome struct {
	digest string
	rep    *lyra.Report
	jobs   int
}

// input is one workload's generated input. run executes one repetition the
// way a user of the program would; layers runs traced and untraced
// repetitions in turn until the deadline (at least one pair), fills the
// per-layer metrics and writes the span trace under outDir.
type input interface {
	run() (outcome, error)
	layers(m metricSet, until time.Time, outDir string) error
}

// workload builds an input from a seed. Building is what setup_s times.
type workload struct {
	name  string
	build func(seed int64) (input, error)
}

// traceShapeSeed fixes the heavy-tailed draws (job sizes, durations, surge
// windows) of every simulated workload's trace. The paper evaluates on one
// fixed 15-day production trace; contention on such a trace is set by a
// handful of very large jobs, so drawing them afresh per seed moves wall
// time by 2x and queuing by 4x between seeds (measured: 1.5-3.1 s and
// 104-421 s on prod-basic over seeds 1-8) and no bound could be set. The
// shape is therefore part of the workload, and -seed drives everything
// around it: arrival jitter, the scenario draw, Config.Seed (inference
// traffic, estimator error) and the fault plan.
const traceShapeSeed = 1

// arrivalJitter is how far, in simulated seconds either way, -seed moves
// each arrival: five scheduler epochs, enough to reorder the queue and give
// every seed its own trace without changing the offered load.
const arrivalJitter = 300

// simSpec declares one simulated workload; build turns it into a config and
// a trace.
type simSpec struct {
	name      string
	days      int
	traceGPUs int                // load calibration target; 0 keeps the production 3544
	maxJob    int                // TraceConfig.MaxJobGPUs; 0 means uncapped
	cluster   lyra.ClusterConfig // zero keeps the production 443+520
	scenario  lyra.ScenarioKind
	shards    int     // N training + N inference shards; 0 is the unsharded engine
	maxTime   float64 // Config.MaxTime; 0 lets the run drain
	faulted   bool    // crash-heavy correlated plan plus all degraded-mode policies
}

var simSpecs = []simSpec{
	{name: "prod-basic", days: 15, scenario: lyra.Basic},
	{name: "prod-ideal", days: 4, scenario: lyra.Ideal},
	{name: "prod-sharded", days: 15, scenario: lyra.Basic, shards: 4},
	{name: "scale-faulted", days: 1, traceGPUs: 354400, scenario: lyra.Basic,
		cluster: lyra.ClusterConfig{TrainingServers: 44300, InferenceServers: 52000},
		maxTime: 7200, faulted: true},
}

// tiny shrinks a spec to 16+16 servers and one day, keeping every mechanism
// (shards, faults, scenario) on: the shape the tests run each code path at.
func (s simSpec) tiny() simSpec {
	s.days = 1
	s.traceGPUs = 128
	s.cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	s.maxJob = 32 // one of four training shards holds 4 servers
	return s
}

func workloads() []workload {
	var ws []workload
	for _, s := range simSpecs {
		s := s
		ws = append(ws, workload{s.name, func(seed int64) (input, error) { return s.build(seed) }})
	}
	return append(ws, workload{"registry-sim", func(seed int64) (input, error) {
		return buildRegistry(experiments.Small(), registryIDs, seed)
	}})
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simInput is a simulated workload's input: the program under test receives
// exactly this config and trace.
type simInput struct {
	spec  simSpec
	cfg   lyra.Config
	trace *lyra.Trace
	seed  int64
}

func (s simSpec) build(seed int64) (*simInput, error) {
	tcfg := lyra.DefaultTraceConfig(traceShapeSeed)
	tcfg.Days = s.days
	if s.traceGPUs > 0 {
		tcfg.TrainingGPUs = s.traceGPUs
	}
	tcfg.MaxJobGPUs = s.maxJob
	tr := lyra.GenerateTrace(tcfg)
	jitterArrivals(tr, seed)

	cfg := lyra.DefaultConfig()
	cfg.Seed = seed
	if s.cluster != (lyra.ClusterConfig{}) {
		cfg.Cluster = s.cluster
	}
	cfg.TrainingShards, cfg.InferenceShards = s.shards, s.shards
	cfg.MaxTime = s.maxTime
	if s.faulted {
		cfg.Faults = lyra.FaultPlan{Seed: seed + 2, ServerMTBF: 86400, ServerMTTR: 600,
			RackOutMTBF: 43200, RackMTTR: 900}
		cfg.RestartBackoff = true
		cfg.QuarantineHysteresis = true
		cfg.EmergencyReclaim = true
	}
	s.scenario.Apply(&cfg, tr, seed)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &simInput{spec: s, cfg: cfg, trace: tr, seed: seed}, nil
}

// jitterArrivals moves every arrival by a seeded offset within
// ±arrivalJitter, then restores the trace's invariants the way
// Trace.Bootstrap does: arrival order, and IDs renumbered in that order.
func jitterArrivals(tr *lyra.Trace, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range tr.Jobs {
		a := j.Arrival + rng.Int63n(2*arrivalJitter+1) - arrivalJitter
		if a < 0 {
			a = 0
		}
		if a >= tr.Horizon {
			a = tr.Horizon - 1
		}
		j.Arrival, j.LastEnqueue = a, a
	}
	sort.SliceStable(tr.Jobs, func(i, k int) bool { return tr.Jobs[i].Arrival < tr.Jobs[k].Arrival })
	for i, j := range tr.Jobs {
		j.ID = i
	}
}

func (in *simInput) run() (outcome, error) {
	rep, err := lyra.Run(in.cfg, in.trace)
	if err != nil {
		return outcome{}, err
	}
	return in.outcomeOf(rep)
}

// outcomeOf digests a report and checks that a workload meant to drain did.
func (in *simInput) outcomeOf(rep *lyra.Report) (outcome, error) {
	if in.spec.maxTime == 0 && rep.Completed != rep.Total {
		return outcome{}, fmt.Errorf("%s: completed %d of %d jobs", in.spec.name, rep.Completed, rep.Total)
	}
	return outcome{digest: reportDigest(rep), rep: rep, jobs: rep.Total}, nil
}

// reportDigest is the sha256 of every statistic in the report: Raw, Prof
// and Events are dropped (pointers, wall-clock spans, and a stream the
// untraced run does not record), the rest prints with round-trip floats.
func reportDigest(rep *lyra.Report) string {
	c := *rep
	c.Raw, c.Prof, c.Events = nil, nil, nil
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", c))))
}
