package sim

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// startPlaced allocates j's base workers on baseSrv plus one flexible
// worker on each of flexSrvs and starts the job, mirroring what placement
// followed by Start does in a scheduler.
func startPlaced(t *testing.T, st *State, j *job.Job, baseSrv int, flexSrvs ...int) {
	t.Helper()
	var ws []job.Worker
	alloc := func(srv int, flexible bool) {
		s := st.Cluster.Server(srv)
		if err := s.Allocate(j.ID, j.GPUsPerWorker, flexible); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, job.Worker{Server: srv, GPU: s.GPU, GPUs: j.GPUsPerWorker, Flexible: flexible})
	}
	for i := 0; i < j.MinWorkers; i++ {
		alloc(baseSrv, false)
	}
	for _, srv := range flexSrvs {
		alloc(srv, true)
	}
	st.Enqueue(j, fifoSched{}.Less)
	st.Start(j, ws)
	st.CompactPending()
}

func TestRemoveFlexibleWorkersFreesLeastLoadedServerFirst(t *testing.T) {
	c := smallCluster(3, 0)
	st := NewState(c, job.Linear, 0)

	// A filler job loads server 1 so the two flexible workers' hosts
	// differ: server 1 ends up with 5 GPUs used, server 2 with 1.
	filler := job.New(9, 0, job.Generic, 4, 1, 1, 1000)
	startPlaced(t, st, filler, 1)

	j := job.New(1, 0, job.Generic, 1, 1, 3, 1000)
	j.Elastic = true
	startPlaced(t, st, j, 0, 1, 2)

	if got := st.RemoveFlexibleWorkers(j, 1); got != 1 {
		t.Fatalf("removed %d workers, want 1", got)
	}
	// The worker on the least-loaded server goes first, freeing server 2
	// entirely for gang placement / voluntary loan returns.
	if got := c.Server(2).Used(); got != 0 {
		t.Errorf("server 2 used = %d, want 0 (least-loaded host freed first)", got)
	}
	if got := c.Server(1).JobGPUs(j.ID); got != 1 {
		t.Errorf("server 1 holds %d GPUs of job 1, want 1 (heavier host kept)", got)
	}

	// Asking for more than remain removes only what exists; the base
	// worker is never touched.
	if got := st.RemoveFlexibleWorkers(j, 5); got != 1 {
		t.Fatalf("removed %d workers, want 1 (only one flexible left)", got)
	}
	if got := c.Server(0).JobGPUs(j.ID); got != 1 {
		t.Errorf("base worker disturbed: server 0 holds %d GPUs", got)
	}
	if len(j.Workers) != 1 || j.Workers[0].Flexible {
		t.Errorf("workers after full scale-in = %+v, want the base worker only", j.Workers)
	}
}

func TestRemoveFlexibleWorkersTieBreaksByServerID(t *testing.T) {
	c := smallCluster(3, 0)
	st := NewState(c, job.Linear, 0)
	j := job.New(1, 0, job.Generic, 1, 1, 3, 1000)
	j.Elastic = true
	// Flexible workers listed out of server order on equally loaded
	// servers: the tie must break by server ID, not insertion order.
	startPlaced(t, st, j, 0, 2, 1)

	if got := st.RemoveFlexibleWorkers(j, 1); got != 1 {
		t.Fatalf("removed %d workers, want 1", got)
	}
	if got := c.Server(1).Used(); got != 0 {
		t.Errorf("server 1 used = %d, want 0 (lower ID wins the tie)", got)
	}
	if got := c.Server(2).Used(); got != 1 {
		t.Errorf("server 2 used = %d, want 1", got)
	}
}

func TestRemoveFlexibleWorkersNoOps(t *testing.T) {
	c := smallCluster(1, 0)
	st := NewState(c, job.Linear, 0)
	j := job.New(1, 0, job.Generic, 1, 1, 2, 1000)
	j.Elastic = true
	if got := st.RemoveFlexibleWorkers(j, 1); got != 0 {
		t.Errorf("removed %d workers from a pending job, want 0", got)
	}
	startPlaced(t, st, j, 0, 0)
	if got := st.RemoveFlexibleWorkers(j, 0); got != 0 {
		t.Errorf("removed %d workers for n=0, want 0", got)
	}
	if got := st.RemoveFlexibleWorkers(j, -3); got != 0 {
		t.Errorf("removed %d workers for negative n, want 0", got)
	}
	if st.ScalingOps != 0 {
		t.Errorf("no-op removals recorded %d scaling ops", st.ScalingOps)
	}
}

// modRoute is a routing-only ShardArbiter: job ID modulo the training shard
// count.
type modRoute struct{}

func (modRoute) Route(sh *Shards, j *job.Job) int { return j.ID % sh.NumTrain }
func (modRoute) Epoch(*Shards)                    {}

func TestBookkeepingMapsDroppedOnFinish(t *testing.T) {
	mkJobs := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 30; i++ {
			jobs = append(jobs, job.New(i, int64(i*97), job.Generic, 1+i%3, 1, 1, float64(100+53*i)))
		}
		return jobs
	}
	shard := func(training, inf, firstID, id int) *cluster.Cluster {
		return cluster.New(cluster.Config{TrainingServers: training, InferenceServers: inf, FirstID: firstID, Shard: id})
	}
	for name, e := range map[string]*Engine{
		"one-state": New(smallCluster(4, 0), mkJobs(), 86400, fifoSched{}, nil, Config{Audit: true}),
		"2+2": NewSharded(ShardedConfig{
			Train:   []*cluster.Cluster{shard(2, 0, 0, 0), shard(2, 0, 2, 1)},
			Inf:     []*cluster.Cluster{shard(0, 1, 4, 2), shard(0, 1, 5, 3)},
			Scheds:  []Scheduler{fifoSched{}, fifoSched{}},
			Arbiter: modRoute{},
			RefTopo: smallCluster(4, 2),
		}, mkJobs(), 86400, Config{Audit: true}),
	} {
		res := e.Run()
		if res.Completed != 30 {
			t.Fatalf("%s: completed %d/30", name, res.Completed)
		}
		lastUpdate, index, finishes := e.BookkeepingSizes()
		if lastUpdate != 0 || index != 0 || finishes != 0 {
			t.Errorf("%s: per-job bookkeeping survives completion: lastUpdate=%d index=%d finish events=%d, want 0/0/0",
				name, lastUpdate, index, finishes)
		}
	}
}

// Summarize sums counters across states and clamps collateral damage at
// zero for both substrates: vacating fewer GPUs than demanded (a reclaim cut
// short) is no collateral, not a negative one.
func TestSummarizeSumsStatesAndClampsCollateral(t *testing.T) {
	a, b := NewState(smallCluster(1, 0), job.Linear, 0), NewState(smallCluster(1, 0), job.Linear, 0)
	a.Preemptions, a.DemandGPUs, a.VacatedGPUs, a.ReclaimedSrv, a.FlexSatisfied = 1, 16, 8, 2, 1
	b.Preemptions, b.DemandGPUs, b.VacatedGPUs, b.Epoch = 2, 8, 8, 7
	done := job.New(0, 0, job.Generic, 1, 1, 1, 10)
	done.State = job.Completed
	res := Summarize([]*job.Job{done, job.New(1, 0, job.Generic, 1, 1, 1, 10)}, a, b)
	if res.Completed != 1 || res.Preemptions != 3 || res.PreemptionRatio != 1.5 || res.SchedEpochs != 7 {
		t.Errorf("summary = %d completed, %d preemptions (ratio %v), %d epochs; want 1, 3 (1.5), 7",
			res.Completed, res.Preemptions, res.PreemptionRatio, res.SchedEpochs)
	}
	if res.CollateralDamage != 0 {
		t.Errorf("collateral = %v for 16 GPUs vacated of 24 demanded, want 0", res.CollateralDamage)
	}
	if res.FlexSatisfiedShare != 0.5 {
		t.Errorf("flex-satisfied share = %v, want 0.5 (1 of 2 servers)", res.FlexSatisfiedShare)
	}
}

// Retire consumes restart overhead first, credits the rest at the given
// share of the allocation's throughput, and stamps the job current: the
// advance inside a later mutation at the same Now credits nothing more.
func TestRetireStampsTheJobCurrent(t *testing.T) {
	st := NewState(smallCluster(2, 0), job.Linear, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 2, 1000) // 4 GPUs at most, 4000 GPU-s
	j.Elastic = true
	startPlaced(t, st, j, 0, 1)
	j.OverheadLeft = 10
	st.Now = 100
	v := st.Version()
	st.Retire(j, 60, 0.5) // 10 s of overhead, then 50 s at half of 4 GPUs
	if j.OverheadLeft != 0 || j.Remaining != j.Work-100 {
		t.Errorf("after Retire: remaining=%v overhead=%v, want %v and 0", j.Remaining, j.OverheadLeft, j.Work-100)
	}
	if st.Version() == v {
		t.Error("retiring work did not bump the version")
	}
	if n := st.RemoveFlexibleWorkers(j, 1); n != 1 || j.Remaining != j.Work-100 {
		t.Errorf("scale-in at the same Now: removed %d, remaining=%v, want 1 and %v", n, j.Remaining, j.Work-100)
	}
	st.Now = 110
	st.Finish(j) // advance: the 10 s since the stamp on the 2 base GPUs
	if j.Remaining != j.Work-120 {
		t.Errorf("Finish 10 s later left remaining=%v, want %v", j.Remaining, j.Work-120)
	}
}
