package sim

import (
	"strings"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/place"
)

// fifoSched is a minimal scheduler for engine tests: arrival order,
// training pool only, gang placement of base demand.
type fifoSched struct{}

func (fifoSched) Less(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func (fifoSched) Schedule(st *State) {
	for _, j := range st.Pending {
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferTraining(true))
		if ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}

func smallCluster(training, inf int) *cluster.Cluster {
	return cluster.New(cluster.Config{TrainingServers: training, InferenceServers: inf})
}

func TestSingleJobLifecycle(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 100, job.Generic, 4, 1, 1, 500)
	e := New(c, []*job.Job{j}, 86400, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 || j.State != job.Completed {
		t.Fatalf("job not completed: %v", j.State)
	}
	// Arrives at 100, first scheduling epoch at 120, runs 500 s.
	if j.StartTime != 120 {
		t.Errorf("start = %d, want 120 (next epoch)", j.StartTime)
	}
	if j.FinishTime != 620 {
		t.Errorf("finish = %d, want 620", j.FinishTime)
	}
	if j.QueueTime != 20 {
		t.Errorf("queue = %d, want 20", j.QueueTime)
	}
	if got := res.JCTSummary().Mean; got != 520 {
		t.Errorf("JCT = %v, want 520", got)
	}
	if c.UsedGPUs(cluster.PoolTraining) != 0 {
		t.Error("GPUs leaked after completion")
	}
}

func TestQueuingWhenClusterFull(t *testing.T) {
	c := smallCluster(1, 0)
	a := job.New(0, 0, job.Generic, 8, 1, 1, 1000)
	b := job.New(1, 0, job.Generic, 8, 1, 1, 1000)
	e := New(c, []*job.Job{a, b}, 86400, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 2 {
		t.Fatal("jobs incomplete")
	}
	if b.StartTime < a.FinishTime {
		t.Errorf("b started at %d before a finished at %d", b.StartTime, a.FinishTime)
	}
	if b.QueueTime < 1000 {
		t.Errorf("b queue = %d, want >= 1000", b.QueueTime)
	}
}

func TestWorkConservationManyJobs(t *testing.T) {
	c := smallCluster(4, 0)
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, job.New(i, int64(i*137), job.Generic, 1+i%4, 1, 1, float64(200+73*i)))
	}
	e := New(c, jobs, 86400, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 40 {
		t.Fatalf("completed %d/40", res.Completed)
	}
	for _, j := range jobs {
		if j.Remaining > 1e-6 {
			t.Errorf("job %d has %v work left after completing", j.ID, j.Remaining)
		}
		if j.FinishTime <= j.Arrival {
			t.Errorf("job %d finished at %d before arrival %d", j.ID, j.FinishTime, j.Arrival)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if c.UsedGPUs(cluster.PoolTraining) != 0 {
		t.Error("GPUs leaked")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		c := smallCluster(2, 0)
		var jobs []*job.Job
		for i := 0; i < 25; i++ {
			jobs = append(jobs, job.New(i, int64(i*311%2000), job.Generic, 1+i%3, 1, 1, float64(150+91*i)))
		}
		res := New(c, jobs, 86400, fifoSched{}, nil, Config{Audit: true}).Run()
		out := make([]int64, 0, len(res.Jobs))
		for _, j := range res.Jobs {
			out = append(out, j.FinishTime)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finish times diverge at job %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPreemptionWithoutCheckpointRestarts(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 4, 1, 1, 1000)
	st := NewState(c, job.Linear, 63)
	st.Now = 0
	less := fifoSched{}.Less
	st.Enqueue(j, less)
	ws, ok := place.Gang(c, j, 1, place.PreferTraining(false))
	if !ok {
		t.Fatal("placement failed")
	}
	st.Start(j, ws)
	st.CompactPending()
	st.Now = 400
	st.advance(j)
	if j.Remaining >= j.Work {
		t.Fatal("no progress recorded")
	}
	st.Preempt(j, less)
	if j.State != job.Pending || j.Remaining != j.Work {
		t.Errorf("state=%v remaining=%v, want pending with full work", j.State, j.Remaining)
	}
	if j.OverheadLeft != 63 {
		t.Errorf("overhead = %v, want 63", j.OverheadLeft)
	}
	if j.Preemptions != 1 || st.Preemptions != 1 {
		t.Error("preemption not counted")
	}
	if c.UsedGPUs(cluster.PoolTraining) != 0 {
		t.Error("GPUs not released on preemption")
	}
	if len(st.Pending) != 1 {
		t.Error("job not re-queued")
	}
}

func TestPreemptionWithCheckpointKeepsProgress(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 4, 1, 1, 1000)
	j.Checkpoint = true
	st := NewState(c, job.Linear, 63)
	less := fifoSched{}.Less
	st.Enqueue(j, less)
	ws, _ := place.Gang(c, j, 1, place.PreferTraining(false))
	st.Start(j, ws)
	st.Now = 400
	st.Preempt(j, less)
	wantRemaining := j.Work - 400*4 // 4 GPUs x 400 s at speed 1
	if j.Remaining != wantRemaining {
		t.Errorf("remaining = %v, want %v", j.Remaining, wantRemaining)
	}
}

func TestOverheadDelaysCompletion(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 8, 1, 1, 300)
	j.OverheadLeft = 63
	e := New(c, []*job.Job{j}, 86400, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	// Starts at 0 (epoch 0 runs after arrival at 0), pays 63 s overhead,
	// then 300 s of work.
	if j.FinishTime != 363 {
		t.Errorf("finish = %d, want 363", j.FinishTime)
	}
}

func TestScaleOutAcceleratesJob(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 4, 400) // work = 400*8 = 3200
	j.Elastic = true

	s := &scaleOnceSched{}
	e := New(c, []*job.Job{j}, 86400, s, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	// 1 worker (2 GPUs) from t=0..60 retires 120 work; then 4 workers (8
	// GPUs) retire the rest: 3200-120 = 3080 / 8 = 385 s -> finish 445.
	if j.FinishTime != 445 {
		t.Errorf("finish = %d, want 445", j.FinishTime)
	}
	if res.ScalingOps == 0 {
		t.Error("scaling op not counted")
	}
}

// scaleOnceSched starts the job with one worker, then scales it to max at
// the next epoch.
type scaleOnceSched struct{ started bool }

func (s *scaleOnceSched) Less(a, b *job.Job) bool { return a.ID < b.ID }

func (s *scaleOnceSched) Schedule(st *State) {
	if !s.started {
		for _, j := range st.Pending {
			ws, ok := place.Gang(st.Cluster, j, 1, place.PreferTraining(false))
			if ok {
				st.Start(j, ws)
				s.started = true
			}
		}
		st.CompactPending()
		return
	}
	for _, j := range st.Running {
		if want := j.MaxWorkers - j.NumWorkers(); want > 0 {
			ws := place.AppendUpTo(nil, st.Cluster, j, want, place.Options{PreferPool: cluster.PoolTraining, Flexible: true})
			if len(ws) > 0 {
				st.AddWorkers(j, ws)
			}
		}
	}
}

func TestRemoveFlexibleWorkers(t *testing.T) {
	c := smallCluster(2, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 4, 400)
	j.Elastic = true
	st := NewState(c, job.Linear, 63)
	st.Enqueue(j, fifoSched{}.Less)
	ws, _ := place.Gang(c, j, 1, place.PreferTraining(false))
	st.Start(j, ws)
	more := place.AppendUpTo(nil, c, j, 3, place.Options{PreferPool: cluster.PoolTraining, Flexible: true})
	st.AddWorkers(j, more)
	if j.NumWorkers() != 4 {
		t.Fatalf("workers = %d", j.NumWorkers())
	}
	if got := st.RemoveFlexibleWorkers(j, 2); got != 2 {
		t.Fatalf("removed %d, want 2", got)
	}
	if j.NumWorkers() != 2 || j.FlexibleWorkers() != 1 {
		t.Errorf("workers=%d flexible=%d, want 2/1", j.NumWorkers(), j.FlexibleWorkers())
	}
	// The recount holds the read count to the flags: a flexible worker
	// flagged as base breaks the gang, and the check at a view read says so.
	if err := st.AuditIncremental(); err != nil {
		t.Fatal(err)
	}
	j.Workers[1].Flexible = false
	if err := st.AuditIncremental(); err == nil || !strings.Contains(err.Error(), "FlexibleWorkers=1, recount=0") {
		t.Errorf("a broken gang must fail the recount, got %v", err)
	}
	j.Workers[1].Flexible = true
	if c.UsedGPUs(cluster.PoolTraining) != 4 {
		t.Errorf("cluster use = %d GPUs, want 4", c.UsedGPUs(cluster.PoolTraining))
	}
	// Removing more than available flexible workers removes what exists.
	if got := st.RemoveFlexibleWorkers(j, 5); got != 1 {
		t.Errorf("removed %d, want 1", got)
	}
}

func TestHourlyQueuedRatio(t *testing.T) {
	c := smallCluster(1, 0)
	// Job 0 fills the cluster for two hours; jobs 1 and 2 arrive in hours
	// 0 and 1 and must queue.
	jobs := []*job.Job{
		job.New(0, 0, job.Generic, 8, 1, 1, 7200),
		job.New(1, 600, job.Generic, 8, 1, 1, 100),
		job.New(2, 4000, job.Generic, 8, 1, 1, 100),
	}
	e := New(c, jobs, 6*3600, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 3 {
		t.Fatal("incomplete")
	}
	if res.HourlyQueuedRatio[0] != 0.5 {
		t.Errorf("hour 0 queued ratio = %v, want 0.5 (job 1 of jobs 0,1)", res.HourlyQueuedRatio[0])
	}
	if res.HourlyQueuedRatio[1] != 1.0 {
		t.Errorf("hour 1 queued ratio = %v, want 1.0", res.HourlyQueuedRatio[1])
	}
}

func TestUsageSampledOverTraceWindowOnly(t *testing.T) {
	c := smallCluster(1, 0)
	// One job occupying everything for far longer than the horizon.
	j := job.New(0, 0, job.Generic, 8, 1, 1, 7200)
	e := New(c, []*job.Job{j}, 3600, fifoSched{}, nil, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	if n := len(res.TrainUsage.Values); n != 12 {
		t.Errorf("usage samples = %d, want 12 (one hour at 5-minute intervals)", n)
	}
	if res.MeanTrainUsage() != 1.0 {
		t.Errorf("train usage = %v, want 1.0", res.MeanTrainUsage())
	}
}

// TestScaleReplacesTheFinishEvent: a job scaled mid-run keeps one finish
// event, moved to its new completion time. The job starts at 0 on one
// worker (finish at 1600), scales to four at 60 (finish at 445), and from
// then on the timeline holds that one event; the job completes at 445 with
// no work left.
func TestScaleReplacesTheFinishEvent(t *testing.T) {
	c := smallCluster(1, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 4, 400)
	j.Elastic = true
	s := &timelineProbe{t: t}
	e := New(c, []*job.Job{j}, 86400, s, nil, Config{Audit: true})
	s.e = e
	res := e.Run()
	if res.Completed != 1 || j.FinishTime != 445 {
		t.Fatalf("completed %d, finish %d; want 1 at 445", res.Completed, j.FinishTime)
	}
	if j.Remaining > 1e-6 {
		t.Errorf("job completed with %v work left", j.Remaining)
	}
	if s.checked == 0 {
		t.Fatal("no epoch saw the scaled job running")
	}
}

// timelineProbe is scaleOnceSched that, once the job has scaled, checks at
// every epoch that the timeline holds its one finish event, at 445.
type timelineProbe struct {
	scaleOnceSched
	t       *testing.T
	e       *Engine
	checked int
}

func (p *timelineProbe) Schedule(st *State) {
	if j := st.Running[0]; j != nil && j.NumWorkers() == j.MaxWorkers {
		h := &p.e.events
		if at := h.pos[0]; h.finishes != 1 || at < 0 || h.ev[at].t != 445 {
			p.t.Errorf("t=%g: %d finish events, job 0's at position %d; want one, at t=445", st.Now, h.finishes, at)
		}
		p.checked++
	}
	p.scaleOnceSched.Schedule(st)
}

func TestRanOnLoanTracking(t *testing.T) {
	c := smallCluster(1, 1)
	inf := c.PoolServers(cluster.PoolInference)[0]
	if err := c.Move(inf.ID, cluster.PoolOnLoan); err != nil {
		t.Fatal(err)
	}
	j := job.New(0, 0, job.Generic, 2, 1, 1, 100)
	j.Fungible = true
	s := &onLoanSched{}
	res := New(c, []*job.Job{j}, 86400, s, nil, Config{Audit: true}).Run()
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	if !res.RanOnLoan[0] {
		t.Error("job ran on an on-loan server but was not flagged")
	}
	if res.OnLoanJCTSummary().N != 1 {
		t.Error("on-loan JCT summary empty")
	}
}

// onLoanFirst places a single-type gang on on-loan servers first, as the
// default placement rule does an elastic job's.
var onLoanFirst = place.Options{PreferPool: cluster.PoolOnLoan, AllowOther: true, SingleGPUType: true}

type onLoanSched struct{}

func (onLoanSched) Less(a, b *job.Job) bool { return a.ID < b.ID }
func (onLoanSched) Schedule(st *State) {
	for _, j := range st.Pending {
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, onLoanFirst)
		if ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}
