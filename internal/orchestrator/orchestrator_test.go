package orchestrator

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/job"
	"lyra/internal/metrics"
	"lyra/internal/place"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

func lessByID(a, b *job.Job) bool { return a.ID < b.ID }

// fixedSeries builds an inference scheduler whose utilization is a constant
// per 5-minute sample sequence.
func fixedSeries(utils []float64, servers int) *inference.Scheduler {
	ts := metrics.NewTimeSeries(0, 300)
	for _, u := range utils {
		ts.Append(u)
	}
	return inference.NewScheduler(ts, servers, 0.02)
}

func newHarness(training, inf int, utils []float64) (*sim.State, *Orchestrator) {
	c := cluster.New(cluster.Config{TrainingServers: training, InferenceServers: inf})
	st := sim.NewState(c, job.Linear, 63)
	o := New(fixedSeries(utils, inf), reclaim.Lyra{}, lessByID)
	return st, o
}

func TestNoLoanWithoutDemand(t *testing.T) {
	st, o := newHarness(2, 10, []float64{0.50})
	o.Epoch(st)
	// The inference cap is floor((1-0.50-0.02)*10) = 4, but with no
	// pending or elastic demand nothing is borrowed: idle loans would
	// tank the on-loan usage the paper keeps above 92% (Figure 9).
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("on-loan = %d, want 0 without demand", got)
	}
}

func TestNonFungibleDemandDoesNotLoan(t *testing.T) {
	st, o := newHarness(1, 10, []float64{0.50})
	// A backlog that cannot run on T4 servers must not trigger loaning.
	for i := 0; i < 3; i++ {
		j := job.New(i, 0, job.Generic, 8, 1, 1, 1000) // not fungible
		st.Enqueue(j, lessByID)
	}
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("on-loan = %d, want 0 for a non-fungible backlog", got)
	}
}

func TestLoanFollowsDemandUpToCap(t *testing.T) {
	st, o := newHarness(1, 10, []float64{0.50})
	// 24 pending fungible GPUs against 8 free: shortfall 16 -> 4 T4
	// servers at the memory-doubling rate, capped at floor(0.48*10)=4.
	for i := 0; i < 6; i++ {
		j := job.New(i, 0, job.Generic, 4, 1, 1, 1000)
		j.Fungible = true
		st.Enqueue(j, lessByID)
	}
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 4 {
		t.Errorf("on-loan = %d, want the cap 4", got)
	}
}

func TestUnloanableWorkersCreateNoDemand(t *testing.T) {
	st, o := newHarness(0, 10, []float64{0.50})
	// An 8-GPU worker needs 16 GPUs on a T4 server — it can never run on
	// loan, so it must not trigger loaning even though it is fungible.
	j := job.New(1, 0, job.Generic, 8, 1, 1, 1000)
	j.Fungible = true
	st.Enqueue(j, lessByID)
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("on-loan = %d, want 0 for an unloanable worker", got)
	}
}

func TestReclaimEmptyServersNoPreemption(t *testing.T) {
	st, o := newHarness(0, 10, []float64{0.50, 0.90})
	// Fungible demand forces two loans (16 GPUs / 4 per T4 server = 4
	// wanted, cap floor(0.48*10)=4... use exactly 2 jobs of 4 GPUs: 8
	// GPUs -> 2 servers).
	for i := 0; i < 2; i++ {
		j := job.New(i, 0, job.Generic, 4, 1, 1, 1000)
		j.Fungible = true
		st.Enqueue(j, lessByID)
	}
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
		t.Fatalf("on-loan = %d, want 2", got)
	}
	// The demand evaporates and the inference cap drops to zero: both
	// (still empty) servers are reclaimed without preemption.
	st.Pending = nil
	st.Now = 300
	o.Epoch(st) // cap = floor((1-0.9-0.02)*10) = 0
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("on-loan = %d, want 0", got)
	}
	if st.Preemptions != 0 {
		t.Errorf("preempted %d jobs on empty servers", st.Preemptions)
	}
	if st.ReclaimedSrv != 2 || st.FlexSatisfied != 2 {
		t.Errorf("reclaimed=%d flexOnly=%d, want 2/2", st.ReclaimedSrv, st.FlexSatisfied)
	}
}

func TestVoluntaryReturnOfIdleServers(t *testing.T) {
	st, o := newHarness(1, 10, []float64{0.50})
	// Demand first: six 4-GPU fungible jobs force loans up to the cap.
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		j := job.New(i, 0, job.Generic, 4, 1, 1, 1000)
		j.Fungible = true
		st.Enqueue(j, lessByID)
		jobs = append(jobs, j)
	}
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 4 {
		t.Fatalf("on-loan = %d, want 4", got)
	}
	// Demand evaporates (jobs withdrawn): the idle servers go back
	// without any reclaiming accounting or preemption.
	st.Pending = nil
	st.Now = 300
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("on-loan after demand vanished = %d, want 0", got)
	}
	if st.Preemptions != 0 || st.ReclaimOps != 0 {
		t.Errorf("voluntary return should not preempt or count as reclaiming: %d/%d",
			st.Preemptions, st.ReclaimOps)
	}
	_ = jobs
}

func TestReclaimPreemptsBaseJobs(t *testing.T) {
	st, o := newHarness(0, 4, []float64{0.40, 0.98})
	// The pending fungible job is the loan demand.
	j := job.New(1, 0, job.Generic, 4, 1, 1, 10000)
	j.Fungible = true
	st.Enqueue(j, lessByID)
	o.Epoch(st)
	if st.Cluster.PoolSize(cluster.PoolOnLoan) == 0 {
		t.Fatalf("no servers loaned despite demand")
	}
	ws, ok := place.Gang(st.Cluster, j, 1, place.PreferOnLoan(false))
	if !ok {
		t.Fatal("placement failed")
	}
	st.Start(j, ws)
	st.CompactPending()

	st.Now = 300
	o.Epoch(st) // reclaim everything
	if st.Cluster.PoolSize(cluster.PoolOnLoan) != 0 {
		t.Errorf("on-loan = %d, want 0", st.Cluster.PoolSize(cluster.PoolOnLoan))
	}
	if j.State != job.Pending {
		t.Errorf("job state = %v, want pending after preemption", j.State)
	}
	if st.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", st.Preemptions)
	}
	if err := st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReclaimScalesInFlexibleFirst(t *testing.T) {
	st, o := newHarness(0, 4, []float64{0.40, 0.70})
	o.IncludeElasticDemand = true
	// Elastic job: base on one on-loan server, flexible on the other.
	j := job.New(1, 0, job.ResNet, 2, 2, 8, 10000)
	j.Elastic = true
	st.Enqueue(j, lessByID)
	o.Epoch(st) // loan for the elastic job's base demand
	if st.Cluster.PoolSize(cluster.PoolOnLoan) < 2 {
		t.Fatalf("on-loan = %d, want >= 2", st.Cluster.PoolSize(cluster.PoolOnLoan))
	}
	base, ok := place.Gang(st.Cluster, j, 2, place.PreferOnLoan(false))
	if !ok {
		t.Fatal("base placement failed")
	}
	st.Start(j, base)
	st.CompactPending()
	flexOpts := place.PreferOnLoan(true)
	for _, w := range base {
		flexOpts.Exclude = append(flexOpts.Exclude, w.Server)
	}
	flex := place.UpTo(st.Cluster, j, 2, flexOpts)
	if len(flex) == 0 {
		t.Fatal("flex placement failed")
	}
	st.AddWorkers(j, flex)

	st.Now = 300
	o.Epoch(st) // target 1: reclaim one server -> the flexible group one
	if st.Preemptions != 0 {
		t.Errorf("preempted despite flexible group release")
	}
	if j.State != job.Running {
		t.Errorf("job should keep running, state %v", j.State)
	}
	if j.FlexibleWorkers() != 0 {
		t.Errorf("flexible workers = %d, want 0 after scale-in", j.FlexibleWorkers())
	}
	if st.Cluster.PoolSize(cluster.PoolOnLoan) != 1 {
		t.Errorf("on-loan = %d, want 1", st.Cluster.PoolSize(cluster.PoolOnLoan))
	}
}

func TestCollateralAccounting(t *testing.T) {
	st, o := newHarness(0, 4, []float64{0.40, 0.98})
	// A fungible job of two 4-GPU workers: each worker occupies a full T4
	// server (memory doubling), so the job spans both loaned servers.
	j := job.New(1, 0, job.Generic, 4, 2, 2, 10000)
	j.Fungible = true
	st.Enqueue(j, lessByID)
	o.Epoch(st) // loan for the job's demand
	ws, ok := place.Gang(st.Cluster, j, 2, place.PreferOnLoan(false))
	if !ok {
		t.Fatal("placement failed")
	}
	st.Start(j, ws)
	st.CompactPending()

	st.Now = 300
	o.Epoch(st) // reclaim both servers: zero collateral (job entirely on them)
	if st.VacatedGPUs != st.DemandGPUs {
		t.Errorf("vacated %d != demand %d: no collateral expected", st.VacatedGPUs, st.DemandGPUs)
	}
	if st.DemandGPUs != 16 {
		t.Errorf("demand = %d, want 16", st.DemandGPUs)
	}
}

func TestOrchestratorEndToEndDiurnal(t *testing.T) {
	// Full engine run with a diurnal utilization: loaning and reclaiming
	// happen, invariants hold, all jobs finish.
	c := cluster.New(cluster.Config{TrainingServers: 4, InferenceServers: 8})
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(3), 86400, 300)
	infSched := inference.NewScheduler(util, 8, 0.02)
	var jobs []*job.Job
	for i := 0; i < 60; i++ {
		j := job.New(i, int64(i*300), job.Generic, 2, 4, 4, float64(2500+i*60))
		j.Fungible = i%2 == 0
		jobs = append(jobs, j)
	}
	s := testSched{}
	o := New(infSched, reclaim.Lyra{}, s.Less)
	res := sim.New(c, jobs, 86400, s, o, sim.Config{Audit: true}).Run()
	if res.Completed != 60 {
		t.Fatalf("completed %d/60", res.Completed)
	}
	if res.ReclaimOps == 0 {
		t.Error("diurnal pattern should force reclaiming")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if c.PoolSize(cluster.PoolOnLoan) != infSched.TargetOnLoan(86400) {
		t.Logf("final on-loan %d, target %d (allowed: reclaim happens on epochs)",
			c.PoolSize(cluster.PoolOnLoan), infSched.TargetOnLoan(86400))
	}
}

// testSched is a FIFO scheduler that uses on-loan servers for fungible
// jobs.
type testSched struct{}

func (testSched) Less(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func (testSched) Schedule(st *sim.State) {
	for _, j := range st.Pending {
		opt := place.PreferTraining(j.Fungible)
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, opt)
		if ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}

// TestEmergencyReclaimRaisesLoanTarget: when crashes shrink the healthy
// training pool below the aggregate gang floor of the running jobs, an
// orchestrator with EmergencyReclaim raises its loan target ahead of any
// pending demand — and without the switch nothing is borrowed.
func TestEmergencyReclaimRaisesLoanTarget(t *testing.T) {
	mk := func(emergency bool) (*sim.State, *Orchestrator) {
		st, o := newHarness(2, 10, []float64{0.50})
		o.EmergencyReclaim = emergency
		// A running gang needing 16 GPUs — exactly the two training servers.
		j := job.New(1, 0, job.Generic, 4, 4, 4, 1000)
		j.Fungible = true
		st.Running[j.ID] = j
		// One training server crashes: healthy capacity 8 < gang floor 16.
		if !st.CrashServer(0, lessByID) {
			t.Fatal("crash of server 0 did not apply")
		}
		return st, o
	}

	st, o := mk(false)
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("emergency off: on-loan = %d, want 0 (no pending demand)", got)
	}

	st, o = mk(true)
	o.Epoch(st)
	// Deficit 8 GPUs at 4 loanable GPUs per T4 server (memory doubling)
	// = 2 servers, well under the utilization cap floor(0.48*10) = 4.
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
		t.Errorf("emergency on: on-loan = %d, want 2", got)
	}

	// The raise respects the inference utilization threshold: at 90%
	// utilization the cap is 0 and even an emergency borrows nothing.
	st, o = mk(true)
	o.Inf = fixedSeries([]float64{0.90}, 10)
	o.Epoch(st)
	if got := st.Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("emergency on, hot inference: on-loan = %d, want 0 (cap is 0)", got)
	}
}
