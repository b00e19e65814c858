package lyra

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/reclaim"
)

func smallTrace(seed int64) *Trace {
	cfg := DefaultTraceConfig(seed)
	cfg.Days = 1
	cfg.TrainingGPUs = 128
	return GenerateTrace(cfg)
}

func smallCluster() ClusterConfig {
	return ClusterConfig{TrainingServers: 16, InferenceServers: 16}
}

func TestRunBaselineCompletesEverything(t *testing.T) {
	tr := smallTrace(1)
	cfg := BaselineConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Total || rep.Total != len(tr.Jobs) {
		t.Errorf("completed %d of %d (trace has %d)", rep.Completed, rep.Total, len(tr.Jobs))
	}
	if rep.Queue.N == 0 || rep.JCT.Mean <= 0 {
		t.Errorf("empty summaries: %+v", rep.Queue)
	}
	if rep.Preemptions != 0 {
		t.Errorf("baseline preempted %d jobs", rep.Preemptions)
	}
}

func TestRunDoesNotMutateInputTrace(t *testing.T) {
	tr := smallTrace(2)
	before := tr.Jobs[0].Remaining
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	if _, err := Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Remaining != before || tr.Jobs[0].State != job.Pending {
		t.Error("Run mutated the input trace")
	}
}

func TestRunDeterministic(t *testing.T) {
	// In-process double run over two days of elastic load. Map-order
	// nondeterminism mostly hides from this (same process, same hash
	// seed); TestRunDeterministicAcrossProcesses is the real guard for
	// that class, this covers everything else (shared state, rng reuse).
	cfg := DefaultTraceConfig(3)
	cfg.Days = 2
	cfg.TrainingGPUs = 128
	tr := GenerateTrace(cfg)
	run := DefaultConfig()
	run.Cluster = smallCluster()
	run.Audit = true
	a, err := Run(run, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(run, tr)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := *a, *b
	ra.Raw, rb.Raw = nil, nil
	if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
		t.Errorf("same config diverged:\n%+v\n%+v", ra, rb)
	}
}

func TestRunRejectsUnknownKinds(t *testing.T) {
	tr := smallTrace(4)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	cfg.Scheduler = "bogus"
	if _, err := Run(cfg, tr); err == nil {
		t.Error("unknown scheduler accepted")
	}
	cfg = DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	cfg.Reclaim = "bogus"
	if _, err := Run(cfg, tr); err == nil {
		t.Error("unknown reclaim policy accepted")
	}
}

func TestValidatePhase2MaxItemsRange(t *testing.T) {
	// The MCKP solver indexes a group's items in an int16: a cap that lets
	// a group outgrow it must be refused by name, not wrap at solve time.
	for items, ok := range map[int]bool{-1: false, 1: true, 8: true, 32766: true, 32767: false, 1 << 20: false} {
		cfg := DefaultConfig()
		cfg.Phase2MaxItems = items
		err := cfg.Validate()
		if ok && err != nil {
			t.Errorf("Phase2MaxItems %d rejected: %v", items, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "Phase2MaxItems")) {
			t.Errorf("Phase2MaxItems %d: error %v, want one naming the field", items, err)
		}
	}
}

func TestValidateRejectsOptimalBeyondItsSearchBound(t *testing.T) {
	// The exhaustive planner refuses more candidates than it can search,
	// and a refused plan reclaims nothing: a cluster that can lend more
	// inference servers than the bound must be turned away up front.
	for servers, ok := range map[int]bool{8: true, reclaim.MaxOptimalServers: true, reclaim.MaxOptimalServers + 1: false, 520: false} {
		cfg := DefaultConfig()
		cfg.Cluster = ClusterConfig{TrainingServers: 8, InferenceServers: servers}
		cfg.Reclaim = ReclaimOptimal
		err := cfg.Validate()
		if ok && err != nil {
			t.Errorf("optimal over %d inference servers rejected: %v", servers, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "Cluster.InferenceServers") || !strings.Contains(err.Error(), fmt.Sprint(reclaim.MaxOptimalServers))) {
			t.Errorf("optimal over %d inference servers: error %v, want one naming Cluster.InferenceServers and the bound", servers, err)
		}
		cfg.Reclaim = ReclaimLyra
		if err := cfg.Validate(); err != nil {
			t.Errorf("lyra over %d inference servers rejected: %v", servers, err)
		}
	}
}

func TestValidateSurfacesNonFiniteFaultPlan(t *testing.T) {
	// A hand-built plan never passes through fault.ParsePlan. A NaN rate
	// reads as "disabled" and would normalize away unseen; an infinite
	// repair time schedules recoveries that never come.
	for field, plan := range map[string]FaultPlan{
		"ServerMTBF":  {ServerMTBF: math.NaN()},
		"ServerMTTR":  {ServerMTBF: 3600, ServerMTTR: math.Inf(1)},
		"RackMTTR":    {RackOutMTBF: 3600, RackMTTR: math.NaN()},
		"ZoneOutMTBF": {ZoneOutMTBF: math.Inf(1)},
	} {
		cfg := DefaultConfig()
		cfg.Faults = plan
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Faults") || !strings.Contains(err.Error(), field) {
			t.Errorf("plan %+v: Validate = %v, want an error naming Faults and %s", plan, err, field)
		}
	}
}

// TestValidateRejectsNonFiniteFields sets every float field of Config,
// Scaling's included, to NaN and to +Inf in turn, with both degraded-mode
// policies on so their knobs are live: each must be refused by name. NaN
// passes every range check, and an unchecked one ran to a mean JCT of 1e18 s
// or completed no job with a nil error. Faults has its own test above.
func TestValidateRejectsNonFiniteFields(t *testing.T) {
	type field struct {
		name  string
		index []int
	}
	var fields []field
	var walk func(prefix string, typ reflect.Type, index []int)
	walk = func(prefix string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f, at := typ.Field(i), append(slices.Clone(index), i)
			switch {
			case f.Name == "Faults":
			case f.Type.Kind() == reflect.Struct:
				walk(prefix+f.Name+".", f.Type, at)
			case f.Type.Kind() == reflect.Float64:
				fields = append(fields, field{prefix + f.Name, at})
			}
		}
	}
	walk("", reflect.TypeOf(Config{}), nil)
	if len(fields) == 0 {
		t.Fatal("Config has no float field")
	}
	for _, f := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			cfg := DefaultConfig()
			cfg.RestartBackoff, cfg.QuarantineHysteresis = true, true
			reflect.ValueOf(&cfg).Elem().FieldByIndex(f.index).SetFloat(bad)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), " "+f.name+" ") {
				t.Errorf("%s = %v: Validate = %v, want an error naming the field", f.name, bad, err)
			}
		}
	}
}

func TestLyraBeatsBaselineOnQueuing(t *testing.T) {
	// A loaded two-day workload so the baseline actually queues.
	tcfg := DefaultTraceConfig(5)
	tcfg.Days = 2
	tcfg.TrainingGPUs = 128
	tcfg.LoadFactor = 1.0
	tr := GenerateTrace(tcfg)
	base := BaselineConfig()
	base.Cluster = smallCluster()
	baseRep, err := Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	full := DefaultConfig()
	full.Cluster = smallCluster()
	fullRep, err := Run(full, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fullRep.Queue.Mean >= baseRep.Queue.Mean {
		t.Errorf("Lyra queuing %v should beat Baseline %v (the paper's headline result)",
			fullRep.Queue.Mean, baseRep.Queue.Mean)
	}
	if fullRep.JCT.Mean >= baseRep.JCT.Mean {
		t.Errorf("Lyra JCT %v should beat Baseline %v", fullRep.JCT.Mean, baseRep.JCT.Mean)
	}
	if fullRep.OverallUsage <= baseRep.OverallUsage {
		t.Errorf("Lyra combined usage %v should beat Baseline %v", fullRep.OverallUsage, baseRep.OverallUsage)
	}
}

func TestEverySchedulerKindRuns(t *testing.T) {
	tr := smallTrace(6)
	for _, kind := range []SchedulerKind{SchedFIFO, SchedLyra, SchedGandiva, SchedAFS, SchedPollux} {
		cfg := DefaultConfig()
		cfg.Cluster = smallCluster()
		cfg.Audit = true
		cfg.Scheduler = kind
		cfg.Loaning = false
		rep, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Completed != rep.Total {
			t.Errorf("%s completed %d/%d", kind, rep.Completed, rep.Total)
		}
	}
}

func TestEveryReclaimKindRuns(t *testing.T) {
	tr := smallTrace(7)
	for _, kind := range []ReclaimKind{ReclaimLyra, ReclaimRandom, ReclaimSCF} {
		cfg := DefaultConfig()
		cfg.Cluster = smallCluster()
		cfg.Audit = true
		cfg.Elastic = false
		cfg.Reclaim = kind
		rep, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Completed != rep.Total {
			t.Errorf("%s completed %d/%d", kind, rep.Completed, rep.Total)
		}
	}
}

func TestApplyScenarioIdeal(t *testing.T) {
	tr := smallTrace(8)
	Ideal.Apply(nil, tr, 9)
	for _, j := range tr.Jobs {
		if !j.Elastic || !j.Fungible || !j.Hetero {
			t.Fatalf("job %d not fully flexible in Ideal", j.ID)
		}
		if j.MaxWorkers < 2*j.MinWorkers {
			t.Fatalf("job %d scaling range %d..%d below 2x", j.ID, j.MinWorkers, j.MaxWorkers)
		}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyScenarioHeterogeneousDisablesFungible(t *testing.T) {
	tr := smallTrace(9)
	Heterogeneous.Apply(nil, tr, 9)
	hetero := 0
	for _, j := range tr.Jobs {
		if j.Fungible {
			t.Fatal("fungible jobs must be disabled in Heterogeneous")
		}
		if j.Hetero {
			hetero++
		}
	}
	frac := float64(hetero) / float64(len(tr.Jobs))
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("hetero fraction = %v, want ~0.10", frac)
	}
}

func TestSetElasticFraction(t *testing.T) {
	tr := smallTrace(10)
	setElasticFraction(tr, 1.0, 11)
	for _, j := range tr.Jobs {
		if !j.Elastic {
			t.Fatal("all jobs should be elastic at fraction 1.0")
		}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	setElasticFraction(tr, 0, 11)
	for _, j := range tr.Jobs {
		if j.Elastic {
			t.Fatal("no jobs should be elastic at fraction 0")
		}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetCheckpointFraction(t *testing.T) {
	tr := smallTrace(11)
	setCheckpointFraction(tr, 0.8, 12)
	n := 0
	for _, j := range tr.Jobs {
		if j.Checkpoint {
			n++
		}
	}
	frac := float64(n) / float64(len(tr.Jobs))
	if frac < 0.7 || frac > 0.9 {
		t.Errorf("checkpoint fraction = %v, want ~0.8", frac)
	}
}

func TestScenarioConfig(t *testing.T) {
	cfg := DefaultConfig()
	Baseline.Apply(&cfg, nil, 0)
	if cfg.Scheduler != SchedFIFO || cfg.Elastic || cfg.Loaning {
		t.Errorf("Baseline scenario config wrong: %+v", cfg)
	}
	cfg = DefaultConfig()
	Ideal.Apply(&cfg, nil, 0)
	if cfg.Scaling.HeteroPenalty != 1.0 {
		t.Errorf("Ideal should have no hetero penalty, got %v", cfg.Scaling.HeteroPenalty)
	}
	cfg = DefaultConfig()
	Advanced.Apply(&cfg, nil, 0)
	if cfg.Scaling.HeteroPenalty != 0.7 {
		t.Errorf("Advanced hetero penalty = %v, want 0.7", cfg.Scaling.HeteroPenalty)
	}
}

// TestScenarioApplyDeterministic pins ScenarioKind.Apply — the single
// scenario-application path since the deprecated wrapper trio was removed —
// to deterministic behavior: the same seed mutates the trace identically,
// and nil sides leave the other side untouched.
func TestScenarioApplyDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	Baseline.Apply(&cfg, nil, 0)
	if cfg.Scheduler != SchedFIFO || cfg.Elastic || cfg.Loaning {
		t.Errorf("Baseline.Apply left %+v, want FIFO without loaning or elastic", cfg)
	}

	trA, trB := smallTrace(8), smallTrace(8)
	Ideal.Apply(nil, trA, 9)
	Ideal.Apply(nil, trB, 9)
	for i, j := range trA.Jobs {
		k := trB.Jobs[i]
		if j.Elastic != k.Elastic || j.Fungible != k.Fungible || j.Hetero != k.Hetero || j.MaxWorkers != k.MaxWorkers {
			t.Fatalf("job %d: same-seed Apply calls diverge: %+v vs %+v", j.ID, j, k)
		}
		if !j.Elastic || !j.Fungible || !j.Hetero {
			t.Fatalf("job %d: Ideal.Apply left capabilities off: %+v", j.ID, j)
		}
	}

	cfgApply := DefaultConfig()
	Advanced.Apply(&cfgApply, nil, 3)
	if cfgApply.Scaling.HeteroPenalty != 0.7 {
		t.Errorf("Advanced.Apply HeteroPenalty = %v, want 0.7", cfgApply.Scaling.HeteroPenalty)
	}
}

func TestProactiveReclaimRuns(t *testing.T) {
	tr := smallTrace(15)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	cfg.Elastic = false
	cfg.ProactiveReclaim = true
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Total {
		t.Errorf("completed %d/%d", rep.Completed, rep.Total)
	}
}

func TestInfoAgnosticRuns(t *testing.T) {
	tr := smallTrace(16)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	cfg.InfoAgnostic = true
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Total {
		t.Errorf("completed %d/%d", rep.Completed, rep.Total)
	}
}

func TestCheckpointingReducesJCTUnderPreemption(t *testing.T) {
	tr := smallTrace(13)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Audit = true
	cfg.Elastic = false
	noCkpt, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tr.Clone()
	setCheckpointFraction(tr2, 1.0, 14)
	ckpt, err := Run(cfg, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if noCkpt.Preemptions > 0 && ckpt.JCT.Mean > noCkpt.JCT.Mean*1.02 {
		t.Errorf("checkpointing should not hurt JCT: %v vs %v (with %d preemptions)",
			ckpt.JCT.Mean, noCkpt.JCT.Mean, noCkpt.Preemptions)
	}
}

// A JSONL writer latches its first encode error and drops every later
// event, so a run whose stream hit one must fail rather than return the
// truncated stream with a nil error.
func TestEventWriterErrorSurfaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Events = true
	r := newRun(cfg, smallTrace(1))
	r.rec.Emit(obs.Event{T: 1, Kind: obs.KindSchedEpoch, Job: -1, F: obs.Fields{"x": math.NaN()}})
	r.rec.Emit(obs.Ev(2, obs.KindSchedEpoch))
	if _, err := r.finish(&Report{}); err == nil || !strings.Contains(err.Error(), "lyra: Events:") {
		t.Fatalf("finish after a NaN field: got %v, want a lyra: Events: error", err)
	}
	clean := newRun(cfg, smallTrace(1))
	clean.rec.Emit(obs.Ev(2, obs.KindSchedEpoch))
	if rep, err := clean.finish(&Report{}); err != nil || len(rep.Events) == 0 {
		t.Fatalf("clean stream: got %v, want the recorded event", err)
	}
}
