package sched

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/sim"
)

// startVictim starts an elastic job with a base worker and one flexible
// worker, both pinned to the given server, building the exact fragmentation
// the multi-pass test needs.
func startVictim(t *testing.T, st *sim.State, id, server int) *job.Job {
	t.Helper()
	v := job.New(id, 0, job.Generic, 2, 1, 2, 10000)
	v.Elastic = true
	s := st.Cluster.Server(server)
	if err := s.Allocate(v.ID, 2, false); err != nil {
		t.Fatal(err)
	}
	st.Start(v, []job.Worker{{Server: server, GPU: cluster.V100, GPUs: 2}})
	if err := s.Allocate(v.ID, 2, true); err != nil {
		t.Fatal(err)
	}
	st.AddWorkers(v, []job.Worker{{Server: server, GPU: cluster.V100, GPUs: 2, Flexible: true}})
	return v
}

// TestStartBaseRecountsAfterReclaim pins the multi-pass startBase fix.
//
// Layout: two full 8-GPU training servers, each holding two elastic jobs
// (base 2 + flexible 2 apiece). A pending inelastic job wants 2 workers × 3
// GPUs. The first pass counts 8 flexible GPUs as available and chooses the
// job, but its make-room reclaim stops at the 6-GPU demand: it frees 4 GPUs
// on server 0 and only 2 on server 1, so neither server fits a 3-GPU worker
// pair and the gang fails. The old single-pass code returned here — the job
// silently lost a whole scheduling epoch even though a fourth flexible
// worker was still reclaimable. The recounting pass reclaims it and places
// the job within the same call.
func TestStartBaseRecountsAfterReclaim(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 0})
	st := sim.NewState(c, job.Linear, 0)
	victims := []*job.Job{
		startVictim(t, st, 1, 0),
		startVictim(t, st, 2, 0),
		startVictim(t, st, 3, 1),
		startVictim(t, st, 4, 1),
	}
	if free := c.FreeGPUs(cluster.PoolTraining); free != 0 {
		t.Fatalf("setup: %d free GPUs, want a full cluster", free)
	}
	if flex := c.FlexibleGPUs(cluster.PoolTraining); flex != 8 {
		t.Fatalf("setup: %d flexible GPUs, want 8", flex)
	}

	a := job.New(5, 0, job.Generic, 3, 2, 2, 1000)
	st.Enqueue(a, lessByArrival)

	started := startBase(st, defaultPoolPolicy, false)

	if a.State != job.Running {
		t.Fatalf("job state = %v after startBase, want Running: the recount "+
			"pass must place it in this epoch, not the next", a.State)
	}
	if len(started) != 1 || started[0] != a {
		t.Fatalf("started = %v, want exactly the pending job", started)
	}
	if got := a.NumWorkers(); got != 2 {
		t.Fatalf("placed workers = %d, want the full 2-worker gang", got)
	}
	for _, v := range victims {
		if fw := v.FlexibleWorkers(); fw != 0 {
			t.Errorf("victim %d still holds %d flexible workers, want all reclaimed", v.ID, fw)
		}
	}
	if len(st.Pending) != 0 {
		t.Fatalf("pending queue = %d jobs after compaction, want empty", len(st.Pending))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := st.AuditIncremental(); err != nil {
		t.Fatal(err)
	}
}
