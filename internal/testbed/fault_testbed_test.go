package testbed

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/sched"
	"lyra/internal/trace"
)

// TestEndToEndWithFaults runs the full prototype stack — Lyra scheduler,
// orchestrator, whitelist handovers, container reconciliation — under a
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

	// Whitelists must mirror the pools, with quarantined servers under
	// neither scheduler's control.
	lyraWL, infWL := tb.lyraWL, tb.infWL
	for _, s := range tb.st.Cluster.Servers() {
		switch s.Pool {
		case cluster.PoolQuarantine:
			if lyraWL.Has(s.ID) || infWL.Has(s.ID) {
				t.Errorf("quarantined server %d still whitelisted", s.ID)
			}
		case cluster.PoolTraining, cluster.PoolOnLoan:
			if !lyraWL.Has(s.ID) || infWL.Has(s.ID) {
				t.Errorf("server %d pool %v vs whitelist mismatch", s.ID, s.Pool)
			}
		case cluster.PoolInference:
			if lyraWL.Has(s.ID) || !infWL.Has(s.ID) {
				t.Errorf("server %d pool %v vs whitelist mismatch", s.ID, s.Pool)
			}
		}
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
