package sched

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/sim"
)

// harness builds a state over a small cluster with some servers on loan.
func harness(t *testing.T, training, onLoan int) *sim.State {
	t.Helper()
	c := cluster.New(cluster.Config{TrainingServers: training, InferenceServers: onLoan + 1})
	inf := c.PoolServers(cluster.PoolInference)
	for i := 0; i < onLoan; i++ {
		if err := c.Move(inf[i].ID, cluster.PoolOnLoan); err != nil {
			t.Fatal(err)
		}
	}
	return sim.NewState(c, job.Linear, 63)
}

func enqueue(st *sim.State, s sim.Scheduler, jobs ...*job.Job) {
	for _, j := range jobs {
		st.Enqueue(j, s.Less)
	}
}

func TestLyraLessIsSJF(t *testing.T) {
	l := NewLyra()
	a := job.New(1, 0, job.Generic, 1, 1, 1, 100)
	a.EstimatedRuntime = 100
	b := job.New(2, 50, job.Generic, 1, 1, 1, 10)
	b.EstimatedRuntime = 10
	if !l.Less(b, a) || l.Less(a, b) {
		t.Error("SJF should order the short job first despite later arrival")
	}
}

func TestFIFOLessIsArrival(t *testing.T) {
	f := &FIFO{}
	a := job.New(1, 0, job.Generic, 1, 1, 1, 100)
	b := job.New(2, 50, job.Generic, 1, 1, 1, 10)
	if !f.Less(a, b) || f.Less(b, a) {
		t.Error("FIFO should order by arrival")
	}
}

func TestLyraStartsInSJFOrderUnderScarcity(t *testing.T) {
	st := harness(t, 1, 0) // 8 training GPUs
	l := NewLyra()
	long := job.New(1, 0, job.Generic, 8, 1, 1, 10000)
	long.EstimatedRuntime = 10000
	short := job.New(2, 0, job.Generic, 8, 1, 1, 10)
	short.EstimatedRuntime = 10
	enqueue(st, l, long, short)
	l.Schedule(st)
	if short.State != job.Running {
		t.Error("short job should start first (SJF)")
	}
	if long.State != job.Pending {
		t.Error("long job should wait")
	}
}

func TestInelasticNonFungiblePinnedToTraining(t *testing.T) {
	st := harness(t, 0, 2) // no training servers, 2 on-loan
	l := NewLyra()
	j := job.New(1, 0, job.Generic, 4, 1, 1, 100)
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Pending {
		t.Error("non-fungible job must not run on on-loan servers")
	}
}

func TestFungibleJobUsesOnLoan(t *testing.T) {
	st := harness(t, 0, 2)
	l := NewLyra()
	j := job.New(1, 0, job.Generic, 4, 1, 1, 100)
	j.Fungible = true
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Running {
		t.Fatal("fungible job should run on on-loan servers")
	}
	if j.Workers[0].GPU != cluster.T4 {
		t.Errorf("worker on %v, want T4", j.Workers[0].GPU)
	}
}

func TestElasticPrefersOnLoanServers(t *testing.T) {
	st := harness(t, 2, 2)
	l := NewLyra()
	j := job.New(1, 0, job.ResNet, 2, 2, 4, 100)
	j.Elastic = true
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Running {
		t.Fatal("elastic job did not start")
	}
	for _, w := range j.Workers {
		if w.GPU != cluster.T4 {
			t.Errorf("elastic worker on %v, want on-loan T4 (§5.3)", w.GPU)
		}
	}
}

func TestPhase2GrowsElasticJob(t *testing.T) {
	st := harness(t, 4, 0)
	l := NewLyra()
	j := job.New(1, 0, job.BERT, 2, 2, 6, 100)
	j.Elastic = true
	j.EstimatedRuntime = 100
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Running {
		t.Fatal("not started")
	}
	if j.NumWorkers() != 6 {
		t.Errorf("workers = %d, want 6 (abundant capacity scales to max)", j.NumWorkers())
	}
	if j.FlexibleWorkers() != 4 {
		t.Errorf("flexible workers = %d, want 4", j.FlexibleWorkers())
	}
}

func TestPhase2DisabledWithoutElasticFlag(t *testing.T) {
	st := harness(t, 4, 0)
	l := &Lyra{Elastic: false}
	j := job.New(1, 0, job.BERT, 2, 2, 6, 100)
	j.Elastic = true
	enqueue(st, l, j)
	l.Schedule(st)
	if j.NumWorkers() != 2 {
		t.Errorf("workers = %d, want base 2 with elastic scaling off", j.NumWorkers())
	}
}

func TestBaseAndFlexibleOnSeparateServers(t *testing.T) {
	st := harness(t, 0, 4)
	l := NewLyra()
	j := job.New(1, 0, job.VGG, 4, 2, 4, 100)
	j.Elastic = true
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Running || j.FlexibleWorkers() == 0 {
		t.Fatalf("want running and scaled, got %v with %d flexible", j.State, j.FlexibleWorkers())
	}
	baseServers := map[int]bool{}
	for _, w := range j.Workers {
		if !w.Flexible {
			baseServers[w.Server] = true
		}
	}
	for _, w := range j.Workers {
		if w.Flexible && baseServers[w.Server] {
			t.Errorf("flexible worker shares server %d with base workers (§5.3 separation)", w.Server)
		}
	}
}

func TestNaivePlacementSkipsSeparation(t *testing.T) {
	st := harness(t, 2, 0)
	l := &Lyra{Elastic: true, NaivePlacement: true}
	j := job.New(1, 0, job.VGG, 2, 2, 4, 100)
	j.Elastic = true
	enqueue(st, l, j)
	l.Schedule(st)
	if j.State != job.Running {
		t.Fatal("not started")
	}
	// With naive placement the flexible workers pack onto the same
	// training server as the base (best fit), demonstrating Table 6's
	// setup.
	shared := false
	baseServers := map[int]bool{}
	for _, w := range j.Workers {
		if !w.Flexible {
			baseServers[w.Server] = true
		}
	}
	for _, w := range j.Workers {
		if w.Flexible && baseServers[w.Server] {
			shared = true
		}
	}
	if !shared {
		t.Error("naive placement should pack base and flexible together")
	}
}

func TestBaseDemandReclaimsFlexibleWorkers(t *testing.T) {
	st := harness(t, 1, 0) // 8 GPUs total
	l := NewLyra()
	el := job.New(1, 0, job.ResNet, 2, 1, 4, 100)
	el.Elastic = true
	el.EstimatedRuntime = 100
	enqueue(st, l, el)
	l.Schedule(st)
	if el.NumWorkers() != 4 {
		t.Fatalf("elastic job should hold the whole server, has %d workers", el.NumWorkers())
	}
	// A new inelastic job needs 4 GPUs; the elastic job must shrink.
	inel := job.New(2, 0, job.Generic, 4, 1, 1, 50)
	inel.EstimatedRuntime = 50
	enqueue(st, l, inel)
	l.Schedule(st)
	if inel.State != job.Running {
		t.Fatal("base demand should displace flexible workers (§5.2 priority)")
	}
	if el.State != job.Running {
		t.Error("elastic job must keep running at reduced size")
	}
	if el.NumWorkers() < el.MinWorkers {
		t.Errorf("elastic job below base demand: %d", el.NumWorkers())
	}
}

func TestHeteroScheduledLast(t *testing.T) {
	st := harness(t, 1, 0)
	l := NewLyra()
	het := job.New(1, 0, job.Generic, 8, 1, 1, 10)
	het.Hetero = true
	het.EstimatedRuntime = 10
	normal := job.New(2, 0, job.Generic, 8, 1, 1, 1000)
	normal.EstimatedRuntime = 1000
	enqueue(st, l, het, normal)
	l.Schedule(st)
	// SJF would favor the hetero job (10 s), but hetero jobs have the
	// lowest priority (§6): the normal job takes the server.
	if normal.State != job.Running {
		t.Error("normal job should be scheduled before hetero jobs")
	}
	if het.State != job.Pending {
		t.Error("hetero job should wait for leftover resources")
	}
}

func TestInfoAgnosticLessIsLAS(t *testing.T) {
	l := &Lyra{InfoAgnostic: true}
	fresh := job.New(1, 100, job.Generic, 1, 1, 1, 1000)
	fresh.EstimatedRuntime = 1000
	partial := job.New(2, 0, job.Generic, 1, 1, 1, 10)
	partial.EstimatedRuntime = 10
	partial.Remaining = partial.Work / 2 // has attained service
	if !l.Less(fresh, partial) || l.Less(partial, fresh) {
		t.Error("LAS should order the zero-attained job first, regardless of estimates")
	}
	// With estimates consulted (SJF), the short job would win instead.
	sjf := NewLyra()
	if !sjf.Less(partial, fresh) {
		t.Error("SJF should order the short job first")
	}
}

func TestOpportunisticPolicyRestrictsFungible(t *testing.T) {
	c := cluster.New(cluster.Config{})
	pp := opportunisticPoolPolicy(c, &job.Job{Fungible: true})
	if pp.allowTraining || !pp.allowOnLoan {
		t.Error("opportunistic fungible jobs go to the inference cluster only")
	}
	pp = opportunisticPoolPolicy(c, &job.Job{})
	if !pp.allowTraining || pp.allowOnLoan {
		t.Error("opportunistic non-fungible jobs stay on training")
	}
}

func TestGandivaGrowsOnlyWhenIdle(t *testing.T) {
	st := harness(t, 2, 0)
	g := &Gandiva{}
	el := job.New(1, 0, job.ResNet, 2, 2, 8, 100)
	el.Elastic = true
	enqueue(st, g, el)
	g.Schedule(st)
	if el.NumWorkers() != 8 {
		t.Fatalf("idle cluster: Gandiva should grow to max, has %d", el.NumWorkers())
	}
	// New pending job: growth must be revoked to make room.
	inel := job.New(2, 0, job.Generic, 8, 1, 1, 50)
	enqueue(st, g, inel)
	g.Schedule(st)
	if inel.State != job.Running {
		t.Error("pending job should displace opportunistic growth")
	}
}

func TestAFSSchedulerGrowsElastic(t *testing.T) {
	st := harness(t, 2, 0)
	a := &AFS{}
	el := job.New(1, 0, job.ResNet, 2, 2, 8, 100)
	el.Elastic = true
	enqueue(st, a, el)
	a.Schedule(st)
	if el.State != job.Running || el.NumWorkers() != 8 {
		t.Errorf("AFS should start and fill: %v workers=%d", el.State, el.NumWorkers())
	}
}

func TestPolluxStartsAndScales(t *testing.T) {
	st := harness(t, 2, 0)
	p := NewPollux(1)
	el := job.New(1, 0, job.ResNet, 2, 2, 8, 100)
	el.Elastic = true
	enqueue(st, p, el)
	p.Schedule(st)
	if el.State != job.Running {
		t.Fatal("Pollux did not start the only job")
	}
	if el.NumWorkers() < el.MinWorkers {
		t.Errorf("below base: %d", el.NumWorkers())
	}
}

func TestSchedulersLeaveClusterConsistent(t *testing.T) {
	for name, s := range map[string]sim.Scheduler{
		"lyra":    NewLyra(),
		"fifo":    &FIFO{},
		"gandiva": &Gandiva{},
		"afs":     &AFS{},
		"pollux":  NewPollux(3),
	} {
		st := harness(t, 3, 2)
		var jobs []*job.Job
		for i := 0; i < 12; i++ {
			j := job.New(i, 0, job.Generic, 1+i%4, 1, 1, float64(100+i*37))
			j.EstimatedRuntime = float64(100 + i*37)
			if i%3 == 0 {
				j.Elastic = true
				j.MaxWorkers = j.MinWorkers * 2
			}
			if i%2 == 0 {
				j.Fungible = true
			}
			jobs = append(jobs, j)
		}
		enqueue(st, s, jobs...)
		for round := 0; round < 3; round++ {
			s.Schedule(st)
			if err := st.Cluster.CheckInvariants(); err != nil {
				t.Errorf("%s round %d: %v", name, round, err)
			}
		}
		for _, j := range jobs {
			if j.State == job.Running {
				if held := j.GPUsHeld(); held < j.BaseGPUs() {
					t.Errorf("%s: job %d holds %d GPUs below base %d", name, j.ID, held, j.BaseGPUs())
				}
			}
		}
	}
}

func TestUnloanableWorkerStaysOnTraining(t *testing.T) {
	// A fungible job with 8-GPU workers cannot use T4 servers (16 GPUs
	// after memory doubling): it must be pinned to the training pool.
	j := job.New(1, 0, job.Generic, 8, 1, 1, 100)
	j.Fungible = true
	c := cluster.New(cluster.Config{})
	pp := defaultPoolPolicy(c, j)
	if pp.allowOnLoan {
		t.Error("unloanable fungible job must not be allowed on loaned servers")
	}
	pp = opportunisticPoolPolicy(c, j)
	if pp.allowOnLoan || !pp.allowTraining {
		t.Error("opportunistic mode must keep unloanable jobs on training")
	}
}

func TestOpportunisticRuntimeBound(t *testing.T) {
	short := job.New(1, 0, job.Generic, 2, 1, 1, 600)
	short.Fungible = true
	short.EstimatedRuntime = 600
	long := job.New(2, 0, job.Generic, 2, 1, 1, 100000)
	long.Fungible = true
	long.EstimatedRuntime = 100000
	c := cluster.New(cluster.Config{})
	if pp := opportunisticPoolPolicy(c, short); !pp.allowOnLoan || pp.allowTraining {
		t.Error("short fungible jobs go to the inference cluster only")
	}
	if pp := opportunisticPoolPolicy(c, long); pp.allowOnLoan || !pp.allowTraining {
		t.Error("long fungible jobs stay on training (they could never finish on transient loans)")
	}
}
