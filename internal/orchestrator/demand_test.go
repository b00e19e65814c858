package orchestrator

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
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
