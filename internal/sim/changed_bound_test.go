package sim_test

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/testbed"
	"lyra/internal/trace"
)

// changedProbe runs a scheduler and records the longest changed list it
// leaves behind on the state it was handed.
type changedProbe struct {
	sim.Scheduler
	max, total int
}

func (p *changedProbe) Schedule(st *sim.State) {
	p.Scheduler.Schedule(st)
	p.max = max(p.max, st.ChangedLen())
	p.total += st.ChangedLen()
}

// TestTestbedChangedListStaysBounded runs the prototype's tick loop, which
// never drains the changed list the engine drains after every event, over
// the full 180-job testbed workload with Lyra's elastic scaling: the list
// must stay a tick's worth of marks long, however long the run.
func TestTestbedChangedListStaysBounded(t *testing.T) {
	tr := trace.GenerateTestbed(5, 180)
	p := &changedProbe{Scheduler: sched.NewLyra()}
	cfg := testbed.Config{
		Cluster:       cluster.TestbedConfig(),
		SchedInterval: 10, OrchInterval: 60, PreemptOverhead: 63, Scaling: job.Linear,
	}
	res := testbed.New(cfg, tr, p, nil).Run(tr.Horizon)
	if res.Completed != len(tr.Jobs) {
		t.Fatalf("completed %d/%d", res.Completed, len(tr.Jobs))
	}
	t.Logf("longest list %d marks; %d marks seen over the run", p.max, p.total)
	if p.total <= 2*len(tr.Jobs) {
		t.Fatalf("only %d marks over the run; the workload does not churn enough to tell", p.total)
	}
	if p.max > len(tr.Jobs)/4 {
		t.Errorf("changed list reached %d marks, want at most %d: it must be discarded every tick",
			p.max, len(tr.Jobs)/4)
	}
}
