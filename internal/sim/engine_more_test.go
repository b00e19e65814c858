package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/place"
)

// loanOrch is a minimal orchestrator: it loans one inference server on its
// first epoch and reclaims it (preempting) on the second.
type loanOrch struct{ epochs int }

func (o *loanOrch) Epoch(st *State) {
	o.epochs++
	switch o.epochs {
	case 1:
		for _, s := range st.Cluster.PoolServers(cluster.PoolInference) {
			if err := st.Cluster.Move(s.ID, cluster.PoolOnLoan); err != nil {
				panic(err)
			}
			break
		}
	case 2:
		for _, s := range st.Cluster.PoolServers(cluster.PoolOnLoan) {
			for _, id := range s.Jobs() {
				st.Preempt(st.Running[id], fifoSched{}.Less)
			}
			if err := st.Cluster.Move(s.ID, cluster.PoolInference); err != nil {
				panic(err)
			}
		}
		st.ReclaimOps++
		st.ReclaimedSrv++
		st.DemandGPUs += 8
		st.VacatedGPUs += 10 // 2 GPUs of collateral
	case 3:
		// Inference traffic subsides: loan again so the preempted job
		// can restart and finish.
		for _, s := range st.Cluster.PoolServers(cluster.PoolInference) {
			if err := st.Cluster.Move(s.ID, cluster.PoolOnLoan); err != nil {
				panic(err)
			}
			break
		}
	}
}

// loanSched places fungible jobs on on-loan servers.
type loanSched struct{}

func (loanSched) Less(a, b *job.Job) bool { return a.ID < b.ID }
func (loanSched) Schedule(st *State) {
	for _, j := range st.Pending {
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferOnLoan(false))
		if ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}

func TestEngineOrchestratorPathAndCollateral(t *testing.T) {
	c := smallCluster(0, 2)
	j := job.New(0, 0, job.Generic, 2, 1, 1, 5000)
	j.Fungible = true
	e := New(c, []*job.Job{j}, 3600, loanSched{}, &loanOrch{}, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 {
		t.Fatalf("completed %d/1 (preempted job should restart after re-loan... it cannot here)", res.Completed)
	}
	if res.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", res.Preemptions)
	}
	if res.ReclaimOps != 1 || res.ReclaimedServers != 1 {
		t.Errorf("reclaim accounting: ops=%d servers=%d", res.ReclaimOps, res.ReclaimedServers)
	}
	if math.Abs(res.CollateralDamage-0.25) > 1e-9 {
		t.Errorf("collateral = %v, want 0.25 (2 of 8 GPUs)", res.CollateralDamage)
	}
}

func TestEngineInferenceUtilInOverallUsage(t *testing.T) {
	c := smallCluster(1, 1)
	j := job.New(0, 0, job.Generic, 8, 1, 1, 3600)
	cfg := Config{InferenceUtil: func(int64) float64 { return 0.5 }, Audit: true}
	res := New(c, []*job.Job{j}, 3600, fifoSched{}, nil, cfg).Run()
	// Training: 8/8 busy. Inference: 0.5*8 = 4 busy. Overall = 12/16.
	if got := res.MeanOverallUsage(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("overall usage = %v, want 0.75", got)
	}
	if got := res.MeanTrainUsage(); got != 1.0 {
		t.Errorf("train usage = %v, want 1.0", got)
	}
}

func TestEngineMaxTimeCutsRunawayJobs(t *testing.T) {
	c := smallCluster(1, 0)
	long := job.New(0, 0, job.Generic, 8, 1, 1, 1e7) // ~116 days
	res := New(c, []*job.Job{long}, 3600, fifoSched{}, nil, Config{MaxTime: 7200, Audit: true}).Run()
	if res.Completed != 0 {
		t.Error("job beyond MaxTime should not complete")
	}
	if long.State != job.Running {
		t.Errorf("job state = %v, want still running at cutoff", long.State)
	}
	if res.JCTSummary().N != 0 {
		t.Error("incomplete jobs must not enter the JCT summary")
	}
}

// An arrival event carries the job's position in the trace, not its ID; the
// auditor's report must still name the job. The cluster is corrupted before
// the run (GPUs held by no job), so the first event audited, the arrival of
// a job whose ID is not its position, panics.
func TestAuditContextNamesTheArrivingJobByID(t *testing.T) {
	c := smallCluster(1, 0)
	if err := c.Servers()[0].Allocate(999, 1, false); err != nil {
		t.Fatal(err)
	}
	j := job.New(41, 0, job.Generic, 1, 1, 1, 600)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("the audit passed a cluster holding GPUs for no job")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "sim:arrival t=0 job=41") {
			t.Errorf("audit context does not name job 41:\n%s", msg)
		}
	}()
	New(c, []*job.Job{j}, 3600, fifoSched{}, nil, Config{Audit: true}).Run()
}

func TestOnLoanUsageNaNWhenNothingLoaned(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 1, 1, 1, 600)
	res := New(c, []*job.Job{j}, 3600, fifoSched{}, nil, Config{Audit: true}).Run()
	if res.MeanOnLoanUsage() != 0 {
		t.Errorf("on-loan usage with no loans = %v, want 0", res.MeanOnLoanUsage())
	}
	for _, v := range res.OnLoanUsage.Values {
		if !math.IsNaN(v) {
			t.Fatal("samples without loans should be NaN placeholders")
		}
	}
}

func TestRemoveFlexibleOnServerTargetsOnlyThatServer(t *testing.T) {
	c := smallCluster(2, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 4, 400)
	j.Elastic = true
	st := NewState(c, job.Linear, 63)
	st.Enqueue(j, fifoSched{}.Less)
	base, _ := place.Gang(c, j, 1, place.PreferTraining(false))
	st.Start(j, base)
	st.CompactPending()
	// Two flexible workers on server 1 specifically.
	gpu := cluster.V100
	flex := place.UpTo(c, j, 2, place.Options{
		PreferPool: cluster.PoolTraining, Flexible: true, SingleGPUType: true,
		FixedGPU: &gpu, Exclude: []int{base[0].Server},
	})
	if len(flex) != 2 {
		t.Fatalf("flex placement: %v", flex)
	}
	st.AddWorkers(j, flex)
	other := 1 - flex[0].Server // no flexible workers there
	if got := st.RemoveFlexibleOnServer(j, other); got != 0 {
		t.Errorf("removed %d workers from the wrong server", got)
	}
	if got := st.RemoveFlexibleOnServer(j, flex[0].Server); got != 2 {
		t.Errorf("removed %d workers, want 2", got)
	}
	if j.NumWorkers() != 1 {
		t.Errorf("workers after scale-in = %d, want base 1", j.NumWorkers())
	}
}
