package lyra

import (
	"bytes"
	"fmt"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/job"
	"lyra/internal/obs"
)

// TestFaultRecoveryEndToEnd is the tentpole acceptance test for the fault
// layer: a ~1k-job, 6-day trace runs under a crash-heavy plan with the
// invariant auditor on after every event (quarantine-aware conservation).
// The contract is zero lost jobs — every job is either completed, or still
// legally pending/running at the horizon; a job that vanishes from the
// books, or a violation panic from the auditor, fails the test.
func TestFaultRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day trace")
	}
	tcfg := DefaultTraceConfig(3)
	tcfg.Days = 6
	tcfg.TrainingGPUs = 256
	tr := GenerateTrace(tcfg)
	if len(tr.Jobs) < 1000 {
		t.Fatalf("trace has %d jobs, want >= 1000", len(tr.Jobs))
	}

	cfg := DefaultConfig()
	cfg.Cluster = ClusterConfig{TrainingServers: 32, InferenceServers: 32}
	cfg.Audit = true
	cfg.Faults = FaultPlan{Seed: 11, ServerMTBF: 86400, ServerMTTR: 900, StragglerFrac: 0.1}

	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.Recoveries == 0 {
		t.Fatalf("crashes=%d recoveries=%d, want both > 0 (64 servers, 6 days, MTBF 1 day)",
			rep.Crashes, rep.Recoveries)
	}
	// Zero lost jobs: account for every single one.
	res := rep.Raw
	completed, pending, running := 0, 0, 0
	for _, j := range res.Jobs {
		switch j.State {
		case job.Completed:
			completed++
		case job.Pending:
			pending++
		case job.Running:
			running++
		default:
			t.Fatalf("job %d in impossible state %v", j.ID, j.State)
		}
	}
	if completed+pending+running != len(tr.Jobs) {
		t.Fatalf("books lost jobs: %d completed + %d pending + %d running != %d submitted",
			completed, pending, running, len(tr.Jobs))
	}
	if completed != rep.Completed {
		t.Errorf("report says %d completed, books say %d", rep.Completed, completed)
	}
	if rep.Completed < len(tr.Jobs)*9/10 {
		t.Errorf("completed %d/%d jobs under faults, want >= 90%%", rep.Completed, len(tr.Jobs))
	}
	if rep.Preemptions == 0 {
		t.Error("crash-heavy run recorded no preemptions; the checkpoint-restart path never ran")
	}
}

// TestFaultedEventStreamDeterministic extends the event-stream determinism
// contract to faulted runs: the crash/recovery timeline is pre-generated
// from the plan seed, so two identical faulted runs record byte-identical
// JSONL — including the new fault.crash / fault.recover / job.restart
// kinds, which must all be present.
func TestFaultedEventStreamDeterministic(t *testing.T) {
	tr := smallTrace(9)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Events = true
	cfg.Audit = true
	cfg.Faults = FaultPlan{Seed: 9, ServerMTBF: 28800, ServerMTTR: 600, StragglerFrac: 0.2}

	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Events, b.Events) {
		t.Fatal("two identical faulted runs recorded different event streams")
	}
	if a.Crashes == 0 || a.Recoveries == 0 {
		t.Fatalf("crashes=%d recoveries=%d: the plan injected nothing, the test is vacuous",
			a.Crashes, a.Recoveries)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(a.Events))
	if err != nil {
		t.Fatal(err)
	}
	_, counts := obs.CountByKind(events)
	for _, kind := range []obs.Kind{obs.KindFaultCrash, obs.KindFaultRecover, obs.KindJobRestart} {
		if counts[kind] == 0 {
			t.Errorf("faulted stream has no %s events", kind)
		}
	}
	if counts[obs.KindFaultCrash] != a.Crashes {
		t.Errorf("stream records %d crashes, report says %d", counts[obs.KindFaultCrash], a.Crashes)
	}
	if counts[obs.KindFaultRecover] != a.Recoveries {
		t.Errorf("stream records %d recoveries, report says %d", counts[obs.KindFaultRecover], a.Recoveries)
	}
}

// TestDisabledFaultPlanIsIdentity is the faults-off acceptance guard: a
// plan that injects nothing — even one carrying a stray seed — must leave a
// run byte-identical to one with no plan at all, event stream included.
// Combined with the fault-free rows of the faultsweep experiment (whose
// registry output is diffed serial-vs-parallel), this pins "faults disabled
// means pre-PR behavior, exactly".
func TestDisabledFaultPlanIsIdentity(t *testing.T) {
	tr := smallTrace(5)
	base := DefaultConfig()
	base.Cluster = smallCluster()
	base.Events = true

	seedOnly := base
	seedOnly.Faults = FaultPlan{Seed: 1234}

	a, err := Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(seedOnly, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Events, b.Events) {
		t.Error("a disabled fault plan changed the event stream")
	}
	ra, rb := *a, *b
	ra.Raw, rb.Raw = nil, nil
	ra.Events, rb.Events = nil, nil
	if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
		t.Errorf("a disabled fault plan changed the report:\n none: %+v\n seed: %+v", ra, rb)
	}
	if b.Crashes != 0 || b.Recoveries != 0 {
		t.Errorf("disabled plan injected faults: crashes=%d recoveries=%d", b.Crashes, b.Recoveries)
	}
}

// TestCrashStormEndToEnd is the tentpole acceptance test for correlated
// failure domains: a rack outage repeatedly removes 25% of training
// capacity (32 training servers at the default rack size of 8) mid-run,
// with the always-on auditor, under degraded mode both off and on. The
// contract: zero lost jobs in both modes, byte-identical streams across
// re-execution, rack outages visible as fault.domain markers, and restart
// backoff bounding how many gangs restart in the same scheduling instant.
func TestCrashStormEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day trace")
	}
	tcfg := DefaultTraceConfig(7)
	tcfg.Days = 3
	tcfg.TrainingGPUs = 256
	tr := GenerateTrace(tcfg)

	base := DefaultConfig()
	base.Cluster = ClusterConfig{TrainingServers: 32, InferenceServers: 32}
	base.Audit = true
	base.Events = true
	base.Faults = FaultPlan{Seed: 11, ServerMTBF: 86400, ServerMTTR: 600,
		RackOutMTBF: 43200, RackMTTR: 900}

	degraded := base
	degraded.RestartBackoff = true
	degraded.QuarantineHysteresis = true
	degraded.EmergencyReclaim = true

	run := func(cfg Config) *Report {
		rep, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		// Zero lost jobs: every submitted job is completed or still
		// legally on the books at the horizon.
		completed, alive := 0, 0
		for _, j := range rep.Raw.Jobs {
			switch j.State {
			case job.Completed:
				completed++
			case job.Pending, job.Running:
				alive++
			default:
				t.Fatalf("job %d in impossible state %v", j.ID, j.State)
			}
		}
		if completed+alive != len(tr.Jobs) {
			t.Fatalf("books lost jobs: %d completed + %d alive != %d submitted",
				completed, alive, len(tr.Jobs))
		}
		if rep.LostCapacityGPUSec <= 0 {
			t.Fatalf("rack outages lost no capacity (LostCapacityGPUSec=%g): the storm never hit",
				rep.LostCapacityGPUSec)
		}
		return rep
	}

	plain := run(base)
	deg := run(degraded)

	// Re-execution determinism, degraded mode on: the full degraded
	// machinery (backoff holds, hold-downs, emergency reclaims) is inside
	// the byte-determinism contract.
	deg2 := run(degraded)
	if !bytes.Equal(deg.Events, deg2.Events) {
		t.Fatal("two identical degraded crash-storm runs recorded different event streams")
	}

	// maxResumes: the most gangs restarting at one timestamp; resumeAt
	// maps cause=resume job.start events by instant.
	countKinds := func(rep *Report) (map[obs.Kind]int, float64) {
		events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
		if err != nil {
			t.Fatal(err)
		}
		_, counts := obs.CountByKind(events)
		resumeAt := map[float64]int{}
		max := 0
		for _, ev := range events {
			if ev.Kind == obs.KindJobStart && ev.Cause == "resume" {
				resumeAt[ev.T]++
				if resumeAt[ev.T] > max {
					max = resumeAt[ev.T]
				}
			}
		}
		return counts, float64(max)
	}
	plainCounts, plainMax := countKinds(plain)
	degCounts, degMax := countKinds(deg)

	// Both modes see the same pre-generated outage timeline.
	for _, rep := range []map[obs.Kind]int{plainCounts, degCounts} {
		if rep[obs.KindFaultDomain] == 0 {
			t.Fatal("no fault.domain markers in a rack-outage stream")
		}
	}
	// Degraded machinery fires only when switched on.
	if plainCounts[obs.KindJobBackoff] != 0 {
		t.Errorf("plain run recorded %d job.backoff events, want 0", plainCounts[obs.KindJobBackoff])
	}
	if degCounts[obs.KindJobBackoff] == 0 {
		t.Error("degraded run recorded no job.backoff events under a crash storm")
	}
	// Backoff spreads post-outage restarts out in time: the worst
	// same-instant restart burst must not exceed the plain run's.
	if degMax > plainMax {
		t.Errorf("degraded restart burst %v exceeds plain %v; backoff made storms worse", degMax, plainMax)
	}
}

// TestMaxTimeBoundIsInvisible: the engine stores no initial event past
// MaxTime and generates the fault schedule only up to the first whole second
// after it. Neither may show before the cap: under all three outage kinds
// and all three degraded-mode policies, with the auditor on, the event
// stream before T is byte for byte the same whether the run is capped at T,
// at 2T or not at all. T sits a quarter second after a scheduled crash that
// is applied, so a bound drawn one second too tight loses an event the
// uncapped run records.
func TestMaxTimeBoundIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("three audited one-day runs")
	}
	tcfg := DefaultTraceConfig(7)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 256
	tr := GenerateTrace(tcfg)

	cfg := DefaultConfig()
	cfg.Cluster = ClusterConfig{TrainingServers: 32, InferenceServers: 32}
	cfg.Audit = true
	cfg.Events = true
	cfg.Faults = FaultPlan{Seed: 11, ServerMTBF: 43200, ServerMTTR: 600,
		RackOutMTBF: 43200, RackMTTR: 900, ZoneOutMTBF: 86400, ZoneMTTR: 1800}
	cfg.RestartBackoff = true
	cfg.QuarantineHysteresis = true
	cfg.EmergencyReclaim = true

	crashAt := -1.0
	sched, _ := fault.FullSchedule(cfg.Faults, cluster.New(cfg.Cluster), tr.Horizon)
	for _, ev := range sched {
		if !ev.Recover && ev.T > 20000 {
			crashAt = ev.T
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("the plan schedules no crash after t=20000")
	}
	T := crashAt + 0.25

	// before returns the stream up to its first event at or after T, and
	// whether the crash at crashAt is in it.
	before := func(maxTime float64) ([]byte, bool) {
		c := cfg
		c.MaxTime = maxTime
		rep, err := Run(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
		if err != nil {
			t.Fatal(err)
		}
		n, crashed := 0, false
		for i, line := range bytes.SplitAfter(rep.Events, []byte("\n")) {
			if i >= len(events) || events[i].T >= T {
				break
			}
			n += len(line)
			crashed = crashed || (events[i].Kind == obs.KindFaultCrash && events[i].T == crashAt)
		}
		return rep.Events[:n], crashed
	}

	want, crashed := before(0)
	if !crashed {
		t.Fatalf("the uncapped run applies no crash at t=%g: the test does not reach the case it is for", crashAt)
	}
	for _, maxTime := range []float64{T, 2 * T} {
		if got, _ := before(maxTime); !bytes.Equal(got, want) {
			t.Errorf("MaxTime=%g: %d bytes of events before t=%g, the uncapped run has %d; streams differ",
				maxTime, len(got), T, len(want))
		}
	}
	if !t.Failed() {
		t.Logf("%d identical bytes before t=%g", len(want), T)
	}
}
