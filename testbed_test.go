package lyra

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/trace"
)

func testbedCfg(cfg Config) Config {
	cfg.Cluster = cluster.TestbedConfig()
	cfg.Audit = true
	return cfg
}

// loanView renders what distinguishes one assembled orchestrator from
// another: the loan-protocol flags and the kinds of policy and targeter.
func loanView(o *orchestrator.Orchestrator) string {
	return fmt.Sprintf("elastic=%v loanOnly=%v emergency=%v policy=%T targeter=%T",
		o.IncludeElasticDemand, o.LoanOnlyDemand, o.EmergencyReclaim, o.Policy, o.Inf)
}

// The prototype's orchestrator must be the simulator's for the same Config:
// same loan-protocol flags, same kind of loan targeter. (Before the shared
// assembly the testbed wired a bare orchestrator.New — all three flags
// false, the forecaster unreachable.)
func TestTestbedSchemeMatchesSimulator(t *testing.T) {
	opportunistic := DefaultConfig()
	opportunistic.Elastic, opportunistic.Reclaim, opportunistic.Opportunistic = false, ReclaimRandom, true
	proactive := DefaultConfig()
	proactive.ProactiveReclaim, proactive.EmergencyReclaim = true, true
	horizon := trace.GenerateTestbed(1, 12).Horizon
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(),
			"elastic=true loanOnly=false emergency=false policy=reclaim.Lyra targeter=*inference.Scheduler"},
		{"opportunistic", opportunistic,
			"elastic=false loanOnly=true emergency=false policy=reclaim.Random targeter=*inference.Scheduler"},
		{"proactive", proactive,
			"elastic=true loanOnly=false emergency=true policy=reclaim.Lyra targeter=*orchestrator.Forecaster"},
	} {
		cfg := testbedCfg(tc.cfg)
		// What oneStateEngine seats, and what RunTestbed hands testbed.New.
		_, simOrch, _ := oneStateScheme(cfg.Normalize(), horizon, 1, nil)
		_, tbOrch, _ := oneStateScheme(cfg.NormalizeTestbed(), horizon, 4, nil)
		if got := loanView(simOrch); got != tc.want {
			t.Errorf("%s: simulator orchestrator is %s, want %s", tc.name, got, tc.want)
		}
		if got := loanView(tbOrch); got != tc.want {
			t.Errorf("%s: testbed orchestrator is %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Every registered scheduler, without loaning and under every registered
// reclaiming policy, drives the prototype to completion with the auditor on
// every tick.
func TestRunTestbedEveryScheme(t *testing.T) {
	tr := trace.GenerateTestbed(3, 12)
	for _, s := range Schedulers() {
		for _, rc := range append([]ReclaimKind{""}, Reclaims()...) {
			s, rc := s, rc
			t.Run(fmt.Sprintf("%s/reclaim=%s", s, rc), func(t *testing.T) {
				t.Parallel()
				cfg := testbedCfg(Config{Scheduler: s, Elastic: true, Loaning: rc != "", Reclaim: rc, Seed: 3})
				res, err := RunTestbed(cfg, tr, TestbedOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed != 12 || res.Total != 12 {
					t.Errorf("completed %d of %d jobs, want 12", res.Completed, res.Total)
				}
				if p := res.Raw.Prototype; p.LyraServers+p.InferenceServers != 8 {
					t.Errorf("whitelists cover %d servers, want 8", p.LyraServers+p.InferenceServers)
				}
			})
		}
	}
}

// The prototype is a pure function of its Config and trace: two runs with
// the recorder, the auditor and a fault plan that crashes servers and fails
// launches report equal results and byte-identical event streams. (Separate
// processes — separate map-hash seeds — are scripts/smoke.sh's fault case.)
func TestTestbedDeterministic(t *testing.T) {
	cfg := testbedCfg(DefaultConfig())
	cfg.Seed = 7
	cfg.Events = true
	cfg.Faults = FaultPlan{Seed: 7, ServerMTBF: 7200, ServerMTTR: 300, LaunchFailProb: 0.1}
	run := func() *Report {
		res, err := RunTestbed(cfg, trace.GenerateTestbed(7, 30), TestbedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != 30 || a.Crashes == 0 || a.Raw.Prototype.LaunchFailures == 0 || len(a.Events) == 0 {
		t.Fatalf("run exercised too little: %d/30 completed, %d crashes, %d launch failures, %d event bytes",
			a.Completed, a.Crashes, a.Raw.Prototype.LaunchFailures, len(a.Events))
	}
	if !bytes.Equal(a.Events, b.Events) {
		t.Error("two identical prototype runs recorded different event streams")
	}
	a.Events, b.Events = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical prototype runs differ:\n%+v\n%+v", a, b)
	}
}

// The prototype replays the simulator's whole fault timeline, rack outages
// included, through the simulator's crash and recovery transitions, and
// counts lost capacity the simulator's way: the report's figure is what the
// run's own fault.crash/fault.recover pairs add up to, with servers still
// down when the last tick ran counted to that tick. (The second run ends
// with a server down.)
func TestTestbedRackOutagesLoseCapacity(t *testing.T) {
	endedDown := false
	for _, tc := range []struct {
		seed   int64
		jobs   int
		faults string
	}{
		{1, 180, "mtbf=3600,mttr=300,launchfail=0.05,rackout=7200"},
		{7, 30, "mtbf=7200,mttr=300,launchfail=0.1,rackout=7200"},
	} {
		cfg := testbedCfg(DefaultConfig())
		cfg.Seed = tc.seed
		cfg.Events = true
		plan, err := ResolveFaultPlan(tc.faults, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
		rep, err := RunTestbed(cfg, trace.GenerateTestbed(tc.seed, tc.jobs), TestbedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != rep.Total || rep.Crashes == 0 || rep.LostCapacityGPUSec <= 0 {
			t.Fatalf("seed %d: %d/%d completed, %d crashes, %v GPU-seconds lost: want every job, crashes and lost capacity",
				tc.seed, rep.Completed, rep.Total, rep.Crashes, rep.LostCapacityGPUSec)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
		if err != nil {
			t.Fatal(err)
		}
		type outage struct{ since, gpus float64 }
		down := map[int]outage{}
		lost, end, domains := 0.0, 0.0, 0
		for _, ev := range events {
			end = ev.T
			switch ev.Kind {
			case obs.KindFaultDomain:
				domains++
			case obs.KindFaultCrash:
				down[int(ev.F["server"].(float64))] = outage{ev.T, ev.F["gpus"].(float64)}
			case obs.KindFaultRecover:
				sid := int(ev.F["server"].(float64))
				lost += (ev.T - down[sid].since) * down[sid].gpus
				delete(down, sid)
			}
		}
		for _, o := range down {
			lost += (end - o.since) * o.gpus
		}
		endedDown = endedDown || len(down) > 0
		if domains == 0 {
			t.Errorf("seed %d: a rack-outage run recorded no fault.domain markers", tc.seed)
		}
		if math.Abs(lost-rep.LostCapacityGPUSec) > 1e-9*lost {
			t.Errorf("seed %d: report says %v GPU-seconds lost, the stream's crash/recover pairs add up to %v",
				tc.seed, rep.LostCapacityGPUSec, lost)
		}
	}
	if !endedDown {
		t.Error("no run ended with a server down: the residual is not checked")
	}
}

// Settings the prototype cannot honour are errors naming the field, not
// silent no-ops.
func TestRunTestbedRejectsWhatItCannotHonour(t *testing.T) {
	tr := trace.GenerateTestbed(1, 4)
	for field, mut := range map[string]func(*Config){
		"TrainingShards":       func(c *Config) { c.TrainingShards, c.InferenceShards = 2, 2 },
		"RestartBackoff":       func(c *Config) { c.RestartBackoff = true },
		"QuarantineHysteresis": func(c *Config) { c.QuarantineHysteresis = true },
		"Scheduler":            func(c *Config) { c.Scheduler = "nonsense" },
	} {
		cfg := testbedCfg(DefaultConfig())
		mut(&cfg)
		if _, err := RunTestbed(cfg, tr, TestbedOptions{}); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: RunTestbed error = %v, want one naming the field", field, err)
		}
	}
	if _, err := RunTestbed(testbedCfg(DefaultConfig()), tr, TestbedOptions{UtilCompress: -1}); err == nil {
		t.Error("RunTestbed accepted a negative UtilCompress")
	}
}

// The one recover wrapper both entry points defer: an invariant panic comes
// back as a *obs.ViolationError with the event ring's tail, anything else
// keeps panicking.
func TestRecoverViolation(t *testing.T) {
	entry := func(panicWith func(r *run)) (err error) {
		r := newRun(Config{Events: true}.Normalize(), &Trace{}, 0, Mix{})
		defer r.recoverViolation(&err)
		panicWith(r)
		return nil
	}
	err := entry(func(r *run) {
		r.rec.Emit(obs.Ev(1, obs.KindSchedEpoch))
		invariant.Fail("test:tick t=1", invariant.Violation{Rule: invariant.RuleLifecycle, Subject: "job 1"})
	})
	var ve *obs.ViolationError
	if !errors.As(err, &ve) || len(ve.Tail) != 1 {
		t.Fatalf("invariant panic returned %v, want a *obs.ViolationError with the one recorded event", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a non-invariant panic was swallowed")
		}
	}()
	_ = entry(func(*run) { panic("boom") })
}

// calibrationCfg is the §7.2 calibration setup (experiments.Calibration):
// the testbed cluster, full Lyra, 30 s / 300 s epochs.
func calibrationCfg(seed int64) Config {
	return testbedCfg(Config{Elastic: true, Loaning: true, SchedInterval: 30, OrchInterval: 300, Seed: seed})
}

// Credit cannot outrun the clock: on the prototype no completed job ran for
// less than its work at its peak throughput takes. Before progress had one
// owner (sim.State.Retire) every scaling operation re-credited an elastic job
// the interval since its last one, and seed 1's job 13 — 16,456 GPU-seconds,
// at most five 2-GPU workers — finished 870 s after it started.
func TestPrototypeProgressHasOneOwner(t *testing.T) {
	cfg := calibrationCfg(1)
	cfg.Events = true
	rep, err := RunTestbed(cfg, trace.GenerateTestbed(1, 60), TestbedOptions{UtilCompress: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 60 {
		t.Fatalf("completed %d of 60 jobs", rep.Completed)
	}
	for _, j := range rep.Raw.Jobs {
		if ran, floor := float64(j.FinishTime-j.StartTime), j.MinRuntime(cfg.Normalize().Scaling); ran < floor {
			t.Errorf("job %d ran %v s, less than the %v s its %v GPU-seconds take on %d GPUs",
				j.ID, ran, floor, j.Work, j.MaxGPUs())
		}
	}
	events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
	if err != nil {
		t.Fatal(err)
	}
	start, finish := -1.0, -1.0
	for _, ev := range obs.JobTimeline(events, 13) {
		switch {
		case ev.Kind == obs.KindJobStart && start < 0:
			start = ev.T
		case ev.Kind == obs.KindJobFinish:
			finish = ev.T
		}
	}
	if start < 0 || finish-start < 1645 {
		t.Errorf("job 13 ran %v s from job.start (t=%v) to job.finish (t=%v), want at least 1645", finish-start, start, finish)
	}
}

// One Report, two substrates: a prototype run fills Raw.Prototype and leaves
// what only the simulator samples at zero; a simulator run of the same Config
// and trace has no Prototype block.
func TestReportAcrossSubstrates(t *testing.T) {
	cfg, tr := calibrationCfg(2), trace.GenerateTestbed(2, 20)
	proto, err := RunTestbed(cfg, tr, TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := proto.Raw.Prototype; p == nil || p.ContainersLaunched == 0 || p.LyraServers+p.InferenceServers != 8 {
		t.Errorf("prototype block = %+v, want launches and 8 whitelisted servers", p)
	}
	if proto.TrainUsage != 0 || proto.OverallUsage != 0 || proto.OnLoanUsage != 0 ||
		proto.OnLoanQueue != (Summary{}) || proto.OnLoanJCT != (Summary{}) {
		t.Errorf("the prototype reported a metric it does not sample: %+v", proto)
	}
	if proto.Completed != 20 || proto.Total != 20 || proto.JCT.N != 20 || proto.Raw.SchedEpochs == 0 {
		t.Errorf("prototype report: %d/%d completed, JCT over %d jobs, %d ticks", proto.Completed, proto.Total, proto.JCT.N, proto.Raw.SchedEpochs)
	}
	simRep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Raw.Prototype != nil {
		t.Errorf("simulator report carries a prototype block: %+v", simRep.Raw.Prototype)
	}
}
