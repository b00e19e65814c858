package lyra

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"lyra/internal/obs"
	"lyra/internal/trace"
)

// TestEventStreamDeterministicAndComplete is the tentpole acceptance test
// for the observability layer: over a ~1k-job, 6-day trace exercising
// elastic scaling, loaning and reclaiming, (a) two identical runs record
// byte-identical JSONL event streams — the determinism contract extends to
// the telemetry itself — and (b) every job's recorded lifecycle replays
// cleanly through the lifecycle state machine: finished jobs are complete
// (submit -> queue -> start -> (preempt -> queue -> start)* -> finish) and
// unfinished jobs are legal prefixes of it.
func TestEventStreamDeterministicAndComplete(t *testing.T) {
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
	cfg.Events = true

	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("Events enabled but the report carries no event stream")
	}
	if !bytes.Equal(a.Events, b.Events) {
		la := strings.Split(string(a.Events), "\n")
		lb := strings.Split(string(b.Events), "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("event streams diverge at line %d:\nrun1: %s\nrun2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d lines", len(la), len(lb))
	}

	events, err := obs.ReadJSONL(bytes.NewReader(a.Events))
	if err != nil {
		t.Fatal(err)
	}
	ids := obs.JobIDs(events)
	if len(ids) != len(tr.Jobs) {
		t.Errorf("stream mentions %d jobs, trace has %d", len(ids), len(tr.Jobs))
	}
	finished := 0
	for _, id := range ids {
		tl := obs.JobTimeline(events, id)
		done := false
		for _, ev := range tl {
			if ev.Kind == obs.KindJobFinish {
				done = true
			}
		}
		err := obs.ValidateLifecycle(tl)
		if done {
			finished++
			if err != nil {
				t.Errorf("finished job %d has a broken lifecycle: %v\n%s", id, err, renderTimeline(tl))
			}
		} else if err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Errorf("unfinished job %d: want a legal-but-incomplete lifecycle, got %v\n%s", id, err, renderTimeline(tl))
		}
	}
	if finished != a.Completed {
		t.Errorf("stream records %d finishes, report says %d completed", finished, a.Completed)
	}

	// The run must have exercised the decision paths the events exist to
	// explain; otherwise this test proves less than intended.
	_, counts := obs.CountByKind(events)
	for _, kind := range []obs.Kind{
		obs.KindJobPreempt, obs.KindJobScaleUp, obs.KindJobScaleDown,
		obs.KindSchedEpoch, obs.KindSchedPhase2,
		obs.KindOrchLoan, obs.KindOrchReclaim, obs.KindReclaimPlan,
	} {
		if counts[kind] == 0 {
			t.Errorf("stream has no %s events", kind)
		}
	}
}

// The event stream is the counter: every count a run reports is the number
// of events of one kind in its recorded stream, or a sum over their payloads
// — on the simulator, with the cluster cut into shards, and on the
// prototype. That is why the stream carries no separate counter samples and
// the recorder keeps no counter store.
func TestEventStreamIsTheCounter(t *testing.T) {
	faulted := DefaultConfig()
	faulted.Cluster = smallCluster()
	faulted.Events = true
	faulted.Faults = FaultPlan{Seed: 11, ServerMTBF: 43200, ServerMTTR: 600, RackOutMTBF: 43200, RackMTTR: 900}
	sharded := faulted
	sharded.TrainingShards, sharded.InferenceShards = 2, 2
	proto := testbedCfg(DefaultConfig())
	proto.Seed, proto.Events = 7, true
	proto.Faults = FaultPlan{Seed: 7, ServerMTBF: 7200, ServerMTTR: 300, LaunchFailProb: 0.1}
	tcfg := DefaultTraceConfig(3)
	tcfg.Days, tcfg.TrainingGPUs = 3, 128
	tr := GenerateTrace(tcfg)

	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"simulator", func() (*Report, error) { return Run(faulted, tr) }},
		{"sharded", func() (*Report, error) { return Run(sharded, tr) }},
		{"prototype", func() (*Report, error) {
			return RunTestbed(proto, trace.GenerateTestbed(7, 30), TestbedOptions{})
		}},
	} {
		rep, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, n := obs.CountByKind(events)
		var reclaimed, demand, collateral int
		var jctSum float64
		for _, ev := range events {
			switch ev.Kind {
			case obs.KindOrchReclaim:
				reclaimed += len(ev.F["servers"].([]any))
				demand += int(ev.F["demand_gpus"].(float64))
				collateral += int(ev.F["collateral_gpus"].(float64))
			case obs.KindJobFinish:
				jctSum += ev.F["jct"].(float64)
			}
		}
		type tally struct {
			what           string
			report, stream int
		}
		counts := []tally{
			{"completed jobs / job.finish", rep.Completed, n[obs.KindJobFinish]},
			{"JCT samples / job.finish", rep.JCT.N, n[obs.KindJobFinish]},
			{"preemptions / job.preempt", rep.Preemptions, n[obs.KindJobPreempt]},
			{"scaling ops / job.scale_up + job.scale_down", rep.ScalingOps, n[obs.KindJobScaleUp] + n[obs.KindJobScaleDown]},
			{"reclaim ops / orch.reclaim", rep.Raw.ReclaimOps, n[obs.KindOrchReclaim]},
			{"reclaimed servers / orch.reclaim servers", rep.Raw.ReclaimedServers, reclaimed},
			{"crashes / fault.crash", rep.Crashes, n[obs.KindFaultCrash]},
			{"recoveries / fault.recover", rep.Recoveries, n[obs.KindFaultRecover]},
		}
		if p := rep.Raw.Prototype; p != nil {
			counts = append(counts,
				tally{"containers launched / container.launch", int(p.ContainersLaunched), n[obs.KindContainerLaunch]},
				tally{"containers killed / container.kill", int(p.ContainersKilled), n[obs.KindContainerKill]},
				tally{"launch failures / fault.launch", p.LaunchFailures, n[obs.KindFaultLaunch]})
		}
		for _, c := range counts {
			if c.report != c.stream {
				t.Errorf("%s: %s: report says %d, the stream counts %d", tc.name, c.what, c.report, c.stream)
			}
		}
		if demand > 0 && rep.CollateralDamage != float64(collateral)/float64(demand) {
			t.Errorf("%s: collateral damage %v, the stream's orch.reclaim payloads give %d/%d",
				tc.name, rep.CollateralDamage, collateral, demand)
		}
		if mean := jctSum / float64(rep.JCT.N); math.Abs(mean-rep.JCT.Mean) > 1e-9*mean {
			t.Errorf("%s: mean JCT %v, the stream's job.finish payloads give %v", tc.name, rep.JCT.Mean, mean)
		}
		// The prototype's 30 jobs never make the orchestrator reclaim; the
		// simulator runs must.
		if rep.Preemptions == 0 || rep.ScalingOps == 0 || rep.Crashes == 0 || rep.Recoveries == 0 ||
			(rep.Raw.Prototype == nil && demand == 0) {
			t.Errorf("%s: run exercised too little: %d preemptions, %d scaling ops, %d crashes, %d recoveries, %d reclaims",
				tc.name, rep.Preemptions, rep.ScalingOps, rep.Crashes, rep.Recoveries, rep.Raw.ReclaimOps)
		}
	}
}

func renderTimeline(tl []obs.Event) string {
	var b strings.Builder
	for _, ev := range tl {
		b.WriteString("  " + ev.String() + "\n")
	}
	return b.String()
}

// TestEventsDoNotChangeResults mirrors TestAuditDoesNotChangeResults:
// recording is read-only, so a run with events on must report bit-identical
// results to the same run with events off.
func TestEventsDoNotChangeResults(t *testing.T) {
	tr := smallTrace(5)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()

	cfg.Events = true
	on, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Events = false
	off, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	a, b := *on, *off
	a.Raw, b.Raw = nil, nil
	a.Events = nil // the only field allowed to differ
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("recording changed the report:\n on: %+v\noff: %+v", a, b)
	}
}
