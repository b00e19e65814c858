package testbed

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

// TestEndToEndWithFaults runs the full prototype stack — Lyra scheduler,
// orchestrator, pool moves, container reconciliation — under a
// crash-heavy fault plan with injected container-launch failures and the
// invariant auditor on every tick. The robustness contract: no job is ever
// lost (crashed servers quarantine, their jobs requeue through the
// checkpoint-restart path, failed launches retry with backoff), and the
// books balance at exit.
func TestEndToEndWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-heavy end-to-end run")
	}
	tr := trace.GenerateTestbed(7, 40)
	plan := &fault.Plan{
		Seed:           7,
		ServerMTBF:     7200,
		ServerMTTR:     300,
		LaunchFailProb: 0.15,
		StragglerFrac:  0.2,
	}
	cfg := testConfig()
	cfg.Faults = plan
	s := sched.NewLyra()
	tb := New(cfg, tr, s, lyraOrchestrator(7, tr, s.Less))
	res := tb.Run(tr.Horizon)
	stats := res.Prototype

	if res.Completed != 40 {
		t.Fatalf("completed %d/40 jobs: faults lost jobs", res.Completed)
	}
	if res.Crashes == 0 || res.Recoveries == 0 {
		t.Errorf("crashes=%d recoveries=%d, want both > 0 (MTBF %g over 8 servers)",
			res.Crashes, res.Recoveries, plan.ServerMTBF)
	}
	if stats.LaunchFailures == 0 {
		t.Errorf("no launch failures injected at prob %g", plan.LaunchFailProb)
	}

	if err := tb.st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	used := 0
	for _, p := range []cluster.Pool{cluster.PoolTraining, cluster.PoolOnLoan, cluster.PoolQuarantine} {
		used += tb.st.Cluster.UsedGPUs(p)
	}
	if used != 0 {
		t.Errorf("%d GPUs still allocated after all jobs completed", used)
	}
	if live := tb.rm.Live(); live != 0 {
		t.Errorf("%d containers still live after all jobs completed", live)
	}
}

// TestTestbedFaultsDisabledInjectsNothing: a disabled (seed-only) plan must
// behave exactly like a nil one — no fault machinery engages, every job
// completes.
func TestTestbedFaultsDisabledInjectsNothing(t *testing.T) {
	tr := trace.GenerateTestbed(3, 20)
	cfg := testConfig()
	cfg.Faults = &fault.Plan{Seed: 99}
	tb := New(cfg, tr, &sched.FIFO{}, nil)
	res := tb.Run(tr.Horizon)
	stats := res.Prototype
	if res.Completed != 20 {
		t.Fatalf("completed %d/20", res.Completed)
	}
	if res.Crashes != 0 || res.Recoveries != 0 || stats.LaunchFailures != 0 {
		t.Errorf("disabled plan injected faults: %d crashes, %d recoveries, %+v", res.Crashes, res.Recoveries, stats)
	}
	if tb.injector != nil || tb.faultEvents != nil {
		t.Error("disabled plan built live fault machinery")
	}
}

// TestServerCountsArePoolSizes: the prototype's two server counts at exit
// are the pools' sizes, counted here server by server, on a rack-outage run
// that ends with a server still quarantined — a quarantined server counts
// under neither scheduler.
func TestServerCountsArePoolSizes(t *testing.T) {
	tr := trace.GenerateTestbed(7, 30)
	cfg := testConfig()
	cfg.Faults = &fault.Plan{Seed: 7, ServerMTBF: 7200, ServerMTTR: 300, LaunchFailProb: 0.1, RackOutMTBF: 7200}
	s := sched.NewLyra()
	tb := New(cfg, tr, s, lyraOrchestrator(7, tr, s.Less))
	stats := tb.Run(tr.Horizon).Prototype

	lyraServers, infServers, down := 0, 0, 0
	for _, srv := range tb.st.Cluster.Servers() {
		switch srv.Pool {
		case cluster.PoolTraining, cluster.PoolOnLoan:
			lyraServers++
		case cluster.PoolInference:
			infServers++
		case cluster.PoolQuarantine:
			down++
		}
	}
	if down == 0 {
		t.Fatal("no server ended quarantined: the run does not exercise the case")
	}
	if stats.LyraServers != lyraServers || stats.InferenceServers != infServers {
		t.Errorf("prototype reports %d/%d servers, the pools hold %d/%d (%d quarantined)",
			stats.LyraServers, stats.InferenceServers, lyraServers, infServers, down)
	}
}

// TestStragglersStampedAlikeOnBothSubstrates: one straggler plan gives every
// job of one trace the same SlowFactor whether the engine or the prototype
// replays it.
func TestStragglersStampedAlikeOnBothSubstrates(t *testing.T) {
	plan := &fault.Plan{Seed: 3, StragglerFrac: 0.3}
	onSim, onTB := trace.GenerateTestbed(3, 60), trace.GenerateTestbed(3, 60)
	sim.New(cluster.New(cluster.TestbedConfig()), onSim.Jobs, onSim.Horizon, &sched.FIFO{}, nil, sim.Config{Faults: plan})
	cfg := testConfig()
	cfg.Faults = plan
	New(cfg, onTB, &sched.FIFO{}, nil)

	slow := 0
	for i, j := range onTB.Jobs {
		if want := onSim.Jobs[i].SlowFactor; j.SlowFactor != want {
			t.Errorf("job %d: prototype SlowFactor %v, engine %v", j.ID, j.SlowFactor, want)
		}
		if j.SlowFactor < 1 {
			slow++
		}
	}
	if slow == 0 || slow == len(onTB.Jobs) {
		t.Errorf("%d of %d jobs slowed at StragglerFrac 0.3", slow, len(onTB.Jobs))
	}
}
