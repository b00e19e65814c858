package orchestrator

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// startOnServer0 places base plus flexible single-GPU-per-worker workers of
// j on training server 0 and starts the job.
func startOnServer0(t *testing.T, st *sim.State, j *job.Job, base, flexible int) {
	t.Helper()
	var ws []job.Worker
	s := st.Cluster.Server(0)
	for i := 0; i < base+flexible; i++ {
		flex := i >= base
		if err := s.Allocate(j.ID, j.GPUsPerWorker, flex); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, job.Worker{Server: 0, GPU: s.GPU, GPUs: j.GPUsPerWorker, Flexible: flex})
	}
	st.Enqueue(j, lessByID)
	st.Start(j, ws)
	st.CompactPending()
}

// TestOverProvisionedElasticDemandClampedAtZero seeds a mixed running set:
// one elastic job holding more flexible workers than its range (as a
// permissive scheduler or an earlier epoch can leave behind) and one with
// genuine unmet flexible demand. The over-provisioned job's negative unmet
// demand must be clamped at zero — not subtracted from the backlog — or the
// orchestrator under-loans for everyone else.
func TestOverProvisionedElasticDemandClampedAtZero(t *testing.T) {
	st, o := newHarness(1, 10, []float64{0.50})
	o.IncludeElasticDemand = true

	// Over-provisioned: range [1,2] but 4 flexible workers -> unmet = -3.
	// (This state intentionally exceeds FlexRange to exercise the clamp;
	// it is the very shape the invariant auditor flags, so none here.)
	over := job.New(1, 0, job.Generic, 1, 1, 2, 1000)
	over.Elastic = true
	startOnServer0(t, st, over, 1, 4)

	// Under-provisioned: range [1,4] with base only -> unmet = +3 GPUs.
	under := job.New(2, 0, job.Generic, 1, 1, 4, 1000)
	under.Elastic = true
	startOnServer0(t, st, under, 1, 0)

	// Pending fungible backlog of 4 GPUs.
	backlog := job.New(3, 0, job.Generic, 1, 4, 4, 1000)
	backlog.Fungible = true
	st.Enqueue(backlog, lessByID)

	// demand = 4 (backlog) + 3 (under's unmet) + 0 (over, clamped);
	// supply = 2 free training GPUs; shortfall 5 -> 2 T4 servers at the
	// memory-doubling rate (4 schedulable GPUs per 8-GPU server), under
	// the cap floor((1-0.50-0.02)*10) = 4. With the unclamped bug the
	// over-provisioned job subtracts 3, shortfall 2 -> only 1 server.
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
		t.Errorf("on-loan = %d, want 2: over-provisioned job's negative unmet demand must not offset the others", got)
	}
}

// TestLoanDemandHonoursServerSize: the GPU-to-server conversion and the
// fits-on-loan filter read the cluster's configured server size. A T4 server
// offers half its GPUs at the memory-doubling rate, whatever its size.
func TestLoanDemandHonoursServerSize(t *testing.T) {
	harness := func(perServer, training int) (*sim.State, *Orchestrator) {
		c := cluster.New(cluster.Config{TrainingServers: training, InferenceServers: 20, GPUsPerServer: perServer})
		// Cap floor((1-0.50-0.02)*20) = 9, above every want below.
		return sim.NewState(c, job.Linear, 63), New(fixedSeries([]float64{0.50}, 20), reclaim.Lyra{}, lessByID)
	}
	for _, tc := range []struct {
		perServer, workerGPUs, jobs, want int
	}{
		{4, 2, 6, 4},   // 12 GPUs against 4 free: shortfall 8 at 2 per server
		{4, 4, 6, 0},   // a 4-GPU worker is 8 T4 GPUs: fits no 4-GPU server
		{8, 4, 6, 4},   // 24 against 8 free: shortfall 16 at 4 per server
		{16, 4, 12, 4}, // 48 against 16 free: shortfall 32 at 8 per server
		{16, 8, 4, 2},  // an 8-GPU worker is 16 T4 GPUs: fits; shortfall 16
	} {
		st, o := harness(tc.perServer, 1)
		for i := 0; i < tc.jobs; i++ {
			j := job.New(i, 0, job.Generic, tc.workerGPUs, 1, 1, 1000)
			j.Fungible = true
			st.Enqueue(j, lessByID)
		}
		o.Epoch(st)
		if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != tc.want {
			t.Errorf("%d jobs of %d GPUs on %d-GPU servers: on-loan = %d, want %d",
				tc.jobs, tc.workerGPUs, tc.perServer, got, tc.want)
		}
	}
	// Emergency reclaim: losing one of two training servers under a gang
	// that fills both is a deficit of one server's GPUs — two T4 servers.
	for _, perServer := range []int{4, 8, 16} {
		st, o := harness(perServer, 2)
		o.EmergencyReclaim = true
		j := job.New(1, 0, job.Generic, perServer/2, 4, 4, 1000)
		st.Running[j.ID] = j
		if !st.CrashServer(0, lessByID) {
			t.Fatal("crash of server 0 did not apply")
		}
		o.Epoch(st)
		if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
			t.Errorf("capacity loss on %d-GPU servers: on-loan = %d, want 2", perServer, got)
		}
	}
}
