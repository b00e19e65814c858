package runner

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lyra"
	"lyra/internal/cluster"
)

func tinyGen() lyra.TraceConfig {
	cfg := lyra.DefaultTraceConfig(1)
	cfg.Days = 1
	cfg.TrainingGPUs = 16 * 8
	cfg.LoadFactor = 0.83
	return cfg
}

func tinyCfg() lyra.Config {
	return lyra.Config{
		Cluster:   lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16},
		Scheduler: lyra.SchedLyra,
		Elastic:   true,
		Loaning:   true,
		Seed:      1,
		Audit:     true,
	}
}

// protoSpec is tinyCfg on the testbed cluster, run by the prototype over a
// jobs-job testbed workload.
func protoSpec(jobs int) Spec {
	cfg := tinyCfg()
	cfg.Cluster = cluster.TestbedConfig()
	return Spec{Config: cfg, Trace: TraceSpec{TestbedJobs: jobs, TestbedSeed: 1}, Testbed: &lyra.TestbedOptions{}}
}

func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

// Semantically equal specs must key equal: normalization resolves the
// zero-vs-default ambiguity before hashing.
func TestKeyEqualForSemanticallyEqualSpecs(t *testing.T) {
	base := NewSpec(tinyCfg(), tinyGen())
	ref := mustKey(t, base)

	equal := map[string]Spec{
		"renamed":           base.Named("other-name"),
		"headroom default":  func() Spec { s := base; s.Config.Headroom = 0.02; return s }(),
		"intervals default": func() Spec { s := base; s.Config.SchedInterval = 60; s.Config.OrchInterval = 300; return s }(),
		"reclaim default":   func() Spec { s := base; s.Config.Reclaim = lyra.ReclaimLyra; return s }(),
		"tuning default":    func() Spec { s := base; s.Config.StabilityBonus = 1.08; s.Config.Phase2MaxItems = 8; return s }(),
		"pre-normalized":    func() Spec { s := base; s.Config = s.Config.Normalize(); return s }(),
		// A disabled fault plan (stray seed, no injection) canonicalizes to
		// the zero plan: pre-PR cache entries and "no faults" runs collide.
		"disabled faults": func() Spec { s := base; s.Config.Faults = lyra.FaultPlan{Seed: 42}; return s }(),
	}
	for name, s := range equal {
		if k := mustKey(t, s); k != ref {
			t.Errorf("%s: key %s != base %s; semantically equal specs must collide", name, k, ref)
		}
	}

	// Reclaim without loaning is inert and must not affect the key.
	noLoanA := base
	noLoanA.Config.Loaning = false
	noLoanB := noLoanA
	noLoanB.Config.Reclaim = lyra.ReclaimSCF
	if mustKey(t, noLoanA) != mustKey(t, noLoanB) {
		t.Errorf("inert Reclaim changed the key of a non-loaning spec")
	}

	// Prototype specs key through the same Normalize (at the prototype's
	// interval defaults), so the same rules hold for them.
	tbKey := func(mut func(*lyra.Config)) string {
		s := protoSpec(60)
		mut(&s.Config)
		return mustKey(t, s)
	}
	tbRef := tbKey(func(*lyra.Config) {})
	for name, mut := range map[string]func(*lyra.Config){
		"headroom default":  func(c *lyra.Config) { c.Headroom = 0.02 },
		"reclaim default":   func(c *lyra.Config) { c.Reclaim = lyra.ReclaimLyra },
		"intervals default": func(c *lyra.Config) { c.SchedInterval, c.OrchInterval = 10, 60 },
	} {
		if k := tbKey(mut); k != tbRef {
			t.Errorf("testbed %s: key %s != base %s", name, k, tbRef)
		}
	}
	noLoan := tbKey(func(c *lyra.Config) { c.Loaning = false })
	if noLoan != tbKey(func(c *lyra.Config) { c.Loaning, c.Reclaim = false, lyra.ReclaimSCF }) {
		t.Errorf("inert Reclaim changed the key of a non-loaning testbed spec")
	}
	if noLoan == tbRef {
		t.Errorf("loaning flip did not change the testbed key")
	}
	if tbKey(func(c *lyra.Config) { c.SchedInterval, c.OrchInterval = 60, 300 }) == tbRef {
		t.Errorf("the simulator's interval defaults key equal to the testbed's")
	}
}

// Every meaningful knob flip must change the key.
func TestKeyDiffersPerField(t *testing.T) {
	base := NewSpec(tinyCfg(), tinyGen())
	ref := mustKey(t, base)

	mutations := map[string]Spec{
		"scheduler":       func() Spec { s := base; s.Config.Scheduler = lyra.SchedFIFO; return s }(),
		"elastic":         func() Spec { s := base; s.Config.Elastic = false; return s }(),
		"loaning":         func() Spec { s := base; s.Config.Loaning = false; return s }(),
		"reclaim":         func() Spec { s := base; s.Config.Reclaim = lyra.ReclaimRandom; return s }(),
		"headroom":        func() Spec { s := base; s.Config.Headroom = 0.10; return s }(),
		"headroom zero":   func() Spec { s := base; s.Config.Headroom = lyra.Zero; return s }(),
		"preempt zero":    func() Spec { s := base; s.Config.PreemptOverhead = lyra.Zero; return s }(),
		"seed":            func() Spec { s := base; s.Config.Seed = 2; return s }(),
		"stability bonus": func() Spec { s := base; s.Config.StabilityBonus = 1.25; return s }(),
		"phase2 items":    func() Spec { s := base; s.Config.Phase2MaxItems = 4; return s }(),
		"hetero penalty":  func() Spec { s := base; s.Config.Scaling.HeteroPenalty = 0.5; return s }(),
		"scenario":        base.WithScenario(lyra.Advanced, 7),
		"scenario seed": func() Spec {
			s := base.WithScenario(lyra.Advanced, 7)
			s.Mix.ScenarioSeed = 8
			return s
		}(),
		"trace seed":      func() Spec { s := base; s.Trace.Gen.Seed = 2; return s }(),
		"trace days":      func() Spec { s := base; s.Trace.Gen.Days = 2; return s }(),
		"trace load":      func() Spec { s := base; s.Trace.Gen.LoadFactor = 0.9; return s }(),
		"hetero frac":     base.WithHeteroFrac(0.3, 9),
		"elastic frac":    base.WithElasticFrac(0.3, 9),
		"checkpoint frac": base.WithCheckpointFrac(0.3, 9),
		"bootstrap":       base.WithBootstrap(1, 10, 3, 11),
		"fault plan":      func() Spec { s := base; s.Config.Faults = lyra.FaultPlan{ServerMTBF: 21600}; return s }(),
		"fault seed": func() Spec {
			s := base
			s.Config.Faults = lyra.FaultPlan{Seed: 1, ServerMTBF: 21600}
			return s
		}(),
	}
	seen := map[string]string{ref: "base"}
	for name, s := range mutations {
		k := mustKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}

	// Bootstrap index selects a different resample: distinct keys.
	b3 := mustKey(t, base.WithBootstrap(1, 10, 3, 11))
	b4 := mustKey(t, base.WithBootstrap(1, 10, 4, 11))
	if b3 == b4 {
		t.Errorf("bootstrap index not part of the key")
	}
}

// Concurrent requests for one key run the function exactly once and all
// observe its result (singleflight). Run under -race via make race.
func TestDoSingleflight(t *testing.T) {
	p := New(4)
	var ran atomic.Int64
	const n = 16
	results := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.do("k", func() (any, error) {
				ran.Add(1)
				return "value", nil
			}, true, false)
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("function ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("request %d got %v", i, v)
		}
	}
	st := p.Stats()
	if st.Requests != n || st.Executed != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want %d requests / 1 executed / %d hits", st, n, n-1)
	}
}

// Errors are memoized too: a deterministic failure fails once.
func TestDoCachesErrors(t *testing.T) {
	p := New(2)
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := p.do("bad", func() (any, error) {
			ran.Add(1)
			return nil, fmt.Errorf("boom")
		}, true, false)
		if err == nil || err.Error() != "boom" {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("failing function ran %d times, want 1", got)
	}
}

func TestPoolDefaultsAndValidation(t *testing.T) {
	if got := New(0).Parallelism(); got < 1 {
		t.Errorf("New(0).Parallelism() = %d, want >= 1", got)
	}
	p := New(1)
	bad := NewSpec(tinyCfg(), tinyGen())
	bad.Config.Scheduler = "nonsense"
	if _, err := p.Sim(bad); err == nil {
		t.Errorf("Sim accepted an unknown scheduler")
	}
	badScen := NewSpec(tinyCfg(), tinyGen())
	badScen.Mix.Scenario = "nonsense"
	if _, err := p.Sim(badScen); err == nil {
		t.Errorf("Sim accepted an unknown scenario")
	}
	badBoot := NewSpec(tinyCfg(), tinyGen()).WithBootstrap(1, 3, 99, 5)
	if _, err := p.Sim(badBoot); err == nil {
		t.Errorf("Sim accepted an out-of-range bootstrap index")
	}
	badTB := protoSpec(10)
	badTB.Config = lyra.Config{Scheduler: "nonsense"}
	if _, err := p.Sim(badTB); err == nil || !strings.Contains(err.Error(), "runner: testbed/nonsense: ") {
		t.Errorf("Sim of a prototype spec with an unknown scheduler: err = %v, want one labelled testbed/nonsense", err)
	}
	// The prototype replays its trace unmixed: a Mix on a testbed spec is
	// an error naming both fields, not a workload silently half adapted.
	mixedTB := protoSpec(10).WithCheckpointFrac(0.5, 1)
	if _, err := p.Sim(mixedTB); err == nil || !strings.Contains(err.Error(), "Testbed and Mix") {
		t.Errorf("Sim of a prototype spec with a Mix: err = %v, want one naming Testbed and Mix", err)
	}
	sharded := protoSpec(10).Named("proto/sharded")
	sharded.Config.TrainingShards, sharded.Config.InferenceShards = 2, 2
	if _, err := p.Sim(sharded); err == nil || !strings.Contains(err.Error(), "runner: proto/sharded: ") {
		t.Errorf("Sim of a sharded prototype spec: err = %v, want RunTestbed's rejection under the spec's name", err)
	}
}

// One Spec, two substrates: a simulator spec and a prototype spec over the
// same TraceSpec key differently and share one synthesized trace, and two
// prototype specs that differ only in a defaulted interval share one
// execution.
func TestSpecSelectsSubstrate(t *testing.T) {
	p := New(2)
	proto := protoSpec(12)
	onSim := proto
	onSim.Testbed = nil
	if mustKey(t, onSim) == mustKey(t, proto) {
		t.Fatal("a simulator spec and a prototype spec over the same trace key equal")
	}
	simRep, err := p.Sim(onSim)
	if err != nil {
		t.Fatal(err)
	}
	protoRep, err := p.Sim(proto)
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Raw.Prototype != nil || protoRep.Raw.Prototype == nil {
		t.Errorf("prototype blocks: simulator %v, prototype %v", simRep.Raw.Prototype, protoRep.Raw.Prototype)
	}
	if simRep.Completed != 12 || protoRep.Completed != 12 {
		t.Errorf("completed %d (simulator) and %d (prototype) of 12 jobs", simRep.Completed, protoRep.Completed)
	}
	spelled := proto
	spelled.Config.SchedInterval, spelled.Config.OrchInterval = 10, 60 // the prototype's defaults
	again, err := p.Sim(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if again != protoRep {
		t.Error("prototype specs differing only in a defaulted interval ran twice")
	}
	if st := p.Stats(); st.Requests != 3 || st.Executed != 2 || st.TraceGens != 1 {
		t.Errorf("stats = %+v, want 3 requests / 2 executed / 1 trace synthesized", st)
	}
}

// A prototype spec's options key through the normalization lyra.RunTestbed
// applies: UtilCompress 0 runs the default of 4, so the two key equal and a
// pool asked for both runs the prototype once, while 1 is another run.
func TestTestbedOptionsKeyNormalized(t *testing.T) {
	compress := func(n int) Spec {
		s := protoSpec(12)
		s.Testbed = &lyra.TestbedOptions{UtilCompress: n}
		return s
	}
	if mustKey(t, compress(0)) != mustKey(t, compress(4)) {
		t.Error("UtilCompress 0 and its default 4 key apart")
	}
	if mustKey(t, compress(1)) == mustKey(t, compress(4)) {
		t.Error("UtilCompress 1 and 4 key equal")
	}
	p := New(2)
	reps, err := p.SimAll([]Spec{compress(0), compress(4)})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] != reps[1] {
		t.Error("UtilCompress 0 and 4 returned different reports")
	}
	if st := p.Stats(); st.Requests != 2 || st.Executed != 1 {
		t.Errorf("stats = %+v, want 2 requests / 1 executed", st)
	}
}

// End to end: one real tiny simulation is shared across equivalent specs and
// both invocations return the same pointer; an inequivalent spec runs fresh.
func TestSimMemoizesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	p := New(2)
	spec := NewSpec(tinyCfg(), tinyGen()).Named("first")
	r1, err := p.Sim(spec)
	if err != nil {
		t.Fatalf("Sim: %v", err)
	}
	alias := spec.Named("second")
	alias.Config.Reclaim = lyra.ReclaimLyra // the normalized default
	r2, err := p.Sim(alias)
	if err != nil {
		t.Fatalf("Sim (alias): %v", err)
	}
	if r1 != r2 {
		t.Errorf("equivalent specs returned distinct results; memoization failed")
	}
	st := p.Stats()
	if st.Requests != 2 || st.Executed != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 requests / 1 executed / 1 hit", st)
	}
	if st.TraceGens != 1 {
		t.Errorf("TraceGens = %d, want 1", st.TraceGens)
	}

	other := spec
	other.Config.Scheduler = lyra.SchedFIFO
	other.Config.Elastic = false
	other.Config.Loaning = false
	r3, err := p.Sim(other)
	if err != nil {
		t.Fatalf("Sim (other): %v", err)
	}
	if r3 == r1 {
		t.Errorf("distinct specs shared one result")
	}
	st = p.Stats()
	if st.Executed != 2 {
		t.Errorf("Executed = %d after a distinct spec, want 2", st.Executed)
	}
	if st.TraceGens != 1 {
		t.Errorf("TraceGens = %d, want 1 (same base trace shared)", st.TraceGens)
	}
}

// SimAll of a batch containing duplicates collapses them and preserves
// positional results.
func TestSimAllCollapsesDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	p := New(4)
	spec := NewSpec(tinyCfg(), tinyGen())
	fifo := spec
	fifo.Config.Scheduler = lyra.SchedFIFO
	fifo.Config.Elastic = false
	fifo.Config.Loaning = false
	batch := []Spec{spec, fifo, spec, fifo, spec}
	reps, err := p.SimAll(batch)
	if err != nil {
		t.Fatalf("SimAll: %v", err)
	}
	if reps[0] != reps[2] || reps[0] != reps[4] || reps[1] != reps[3] {
		t.Errorf("duplicate specs did not share results")
	}
	if reps[0] == reps[1] {
		t.Errorf("distinct specs shared one result")
	}
	if st := p.Stats(); st.Executed != 2 {
		t.Errorf("Executed = %d, want 2", st.Executed)
	}
}

// TestMixAppliesScenarioBeforeKnobs pins the order a run adapts its workload
// in: the scenario, then the mix knobs. Ideal makes every job elastic and an
// elastic fraction of 0 applied after it leaves none elastic; the reverse
// order would leave every job elastic.
func TestMixAppliesScenarioBeforeKnobs(t *testing.T) {
	spec := NewSpec(tinyCfg(), tinyGen()).WithScenario(lyra.Ideal, 7).WithElasticFrac(0, 9)
	shared, err := New(1).materializeTrace(spec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tr, cfg := shared.Clone(), spec.Config // the pool's trace is read-only
	if err := spec.Mix.Apply(&cfg, tr); err != nil {
		t.Fatal(err)
	}
	if cfg.Scaling.HeteroPenalty != 1 {
		t.Errorf("HeteroPenalty = %v, want Ideal's 1", cfg.Scaling.HeteroPenalty)
	}
	for _, j := range tr.Jobs {
		if j.Elastic || !j.Hetero {
			t.Fatalf("job %d: elastic %v, hetero %v; want Ideal's hetero with no job elastic", j.ID, j.Elastic, j.Hetero)
		}
	}
}
