package invariant

import (
	"strings"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// fixture is a small, fully consistent state: one running job with its base
// demand on training server 0 plus one flexible worker on server 1, and one
// pending job. Each mutation test corrupts exactly one bookkeeping path and
// asserts the auditor names the seeded bug class.
type fixture struct {
	c       *cluster.Cluster
	running *job.Job
	pending *job.Job
	view    View
}

func lessByID(a, b *job.Job) bool { return a.ID < b.ID }

func newFixture(t *testing.T) *fixture {
	t.Helper()
	c := cluster.New(cluster.Config{TrainingServers: 3, InferenceServers: 2, GPUsPerServer: 8})

	r := job.New(1, 0, job.Generic, 2, 2, 3, 1000)
	r.Elastic = true
	r.State = job.Running
	r.Started = true
	for _, w := range []job.Worker{
		{Server: 0, GPU: cluster.V100, GPUs: 2},
		{Server: 0, GPU: cluster.V100, GPUs: 2},
		{Server: 1, GPU: cluster.V100, GPUs: 2, Flexible: true},
	} {
		if err := c.Server(w.Server).Allocate(r.ID, w.GPUs, w.Flexible); err != nil {
			t.Fatal(err)
		}
		r.Workers = append(r.Workers, w)
	}

	p := job.New(2, 10, job.Generic, 1, 1, 1, 500)

	f := &fixture{c: c, running: r, pending: p}
	f.view = View{
		Context: "test",
		Now:     100,
		Cluster: c,
		Pending: []*job.Job{p},
		Running: map[int]*job.Job{r.ID: r},
		Less:    lessByID,
	}
	return f
}

// audit runs a fresh auditor over the fixture's view.
func (f *fixture) audit() error { return New().Audit(f.view) }

// mustViolate asserts err is an *Error containing at least one violation of
// the given rule, with expected/actual both rendered.
func mustViolate(t *testing.T, err error, rule string) *Error {
	t.Helper()
	if err == nil {
		t.Fatalf("auditor missed a seeded %s violation", rule)
	}
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("audit returned %T, want *invariant.Error", err)
	}
	for _, v := range ae.Violations {
		if v.Rule == rule {
			if v.Expected == "" || v.Actual == "" {
				t.Errorf("violation %v lacks an expected/actual diff", v)
			}
			return ae
		}
	}
	t.Fatalf("no %s violation in: %v", rule, ae)
	return nil
}

func TestCleanStatePasses(t *testing.T) {
	f := newFixture(t)
	if err := f.audit(); err != nil {
		t.Fatalf("consistent state reported violations: %v", err)
	}
	// Repeated audits with history must stay clean too.
	a := New()
	for i := 0; i < 3; i++ {
		f.view.Now += 10
		if err := a.Audit(f.view); err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
	}
}

func TestLeakedGPUAllocation(t *testing.T) {
	f := newFixture(t)
	// GPUs allocated on a server with no worker recording them: the classic
	// leak left behind by a missed release.
	if err := f.c.Server(2).Allocate(f.running.ID, 4, false); err != nil {
		t.Fatal(err)
	}
	mustViolate(t, f.audit(), RuleGPUConservation)
}

func TestDoubleRelease(t *testing.T) {
	f := newFixture(t)
	// The cluster side was released twice (worker still recorded on the
	// job): its GPUs vanished from the server allocation.
	if err := f.c.Server(1).Release(f.running.ID, 2); err != nil {
		t.Fatal(err)
	}
	err := mustViolate(t, f.audit(), RuleGPUConservation)
	if !strings.Contains(err.Error(), "double release") {
		t.Errorf("double-release detail missing from: %v", err)
	}
}

func TestWorkerGPUCountMismatch(t *testing.T) {
	f := newFixture(t)
	f.running.Workers[0].GPUs = 3 // job claims more than the server granted
	mustViolate(t, f.audit(), RuleGPUConservation)
}

func TestFlexibleAccountingMismatch(t *testing.T) {
	f := newFixture(t)
	f.running.Workers[2].Flexible = false // cluster still counts it flexible
	mustViolate(t, f.audit(), RuleGPUConservation)
}

func TestUnsortedQueue(t *testing.T) {
	f := newFixture(t)
	early := job.New(0, 0, job.Generic, 1, 1, 1, 500) // sorts before job 2
	f.view.Pending = append(f.view.Pending, early)    // appended after it
	mustViolate(t, f.audit(), RuleQueueOrder)
}

func TestDuplicateQueueEntry(t *testing.T) {
	f := newFixture(t)
	f.view.Pending = append(f.view.Pending, f.pending)
	mustViolate(t, f.audit(), RuleQueueOrder)
}

func TestNonPendingJobInQueue(t *testing.T) {
	f := newFixture(t)
	f.pending.State = job.Completed // finished but never compacted out
	mustViolate(t, f.audit(), RuleQueueOrder)
}

func TestPendingJobWithWorkers(t *testing.T) {
	f := newFixture(t)
	f.pending.Workers = []job.Worker{{Server: 2, GPU: cluster.V100, GPUs: 1}}
	mustViolate(t, f.audit(), RuleLifecycle)
}

func TestRunningJobWithoutWorkers(t *testing.T) {
	f := newFixture(t)
	ghost := job.New(3, 0, job.Generic, 1, 1, 1, 500)
	ghost.State = job.Running
	f.view.Running[ghost.ID] = ghost
	mustViolate(t, f.audit(), RuleLifecycle)
}

func TestJobInBothQueueAndRunning(t *testing.T) {
	f := newFixture(t)
	f.pending.State = job.Pending
	f.view.Running[f.pending.ID] = f.pending
	mustViolate(t, f.audit(), RuleLifecycle)
}

func TestBaseDemandBroken(t *testing.T) {
	f := newFixture(t)
	// Drop one base worker but keep the cluster side consistent: the gang
	// of MinWorkers base workers must never shrink while running.
	if err := f.c.Server(0).Release(f.running.ID, 2); err != nil {
		t.Fatal(err)
	}
	f.running.Workers = f.running.Workers[1:]
	mustViolate(t, f.audit(), RuleLifecycle)
}

func TestFlexibleCountMatchesScan(t *testing.T) {
	// A third base worker, consistent on the cluster side: the job holds
	// one worker flagged flexible, yet the workers beyond its base gang,
	// which the schedulers read as its flexible count, are two.
	f := newFixture(t)
	if err := f.c.Server(2).Allocate(f.running.ID, 2, false); err != nil {
		t.Fatal(err)
	}
	f.running.Workers = append(f.running.Workers, job.Worker{Server: 2, GPU: cluster.V100, GPUs: 2})
	if f.running.FlexibleWorkers() == f.running.CountFlexible() {
		t.Fatal("the fixture must put the read count and the scan apart")
	}
	ae := mustViolate(t, f.audit(), RuleLifecycle)
	if len(ae.Violations) != 1 || !strings.Contains(ae.Violations[0].Actual, "1 flexible, FlexibleWorkers reads 2") {
		t.Errorf("want one violation naming both counts, got %v", ae)
	}
}

func TestNegativeRemaining(t *testing.T) {
	f := newFixture(t)
	f.running.Remaining = -1
	mustViolate(t, f.audit(), RuleProgressBounds)
}

func TestNegativeOverhead(t *testing.T) {
	f := newFixture(t)
	f.running.OverheadLeft = -0.5
	mustViolate(t, f.audit(), RuleProgressBounds)
}

func TestRemainingAboveWork(t *testing.T) {
	f := newFixture(t)
	f.running.Remaining = f.running.Work * 2
	mustViolate(t, f.audit(), RuleProgressBounds)
}

// Credit cannot outrun the clock: the fixture's running job peaks at 3
// workers x 2 V100 GPUs and started at t=0, so by t=100 it can have retired
// at most 600 GPU-seconds — more means progress was credited twice. The
// bound follows the fastest GPU type the auditor has seen in any cluster.
func TestCreditOutrunsClock(t *testing.T) {
	f := newFixture(t)
	f.running.Remaining = f.running.Work - 600
	if err := f.audit(); err != nil {
		t.Fatalf("a job exactly at its peak-throughput bound failed the audit: %v", err)
	}
	f.running.Remaining = f.running.Work - 601
	ae := mustViolate(t, f.audit(), RuleProgressBounds)
	if !strings.Contains(ae.Error(), "601 GPU-seconds retired") || !strings.Contains(ae.Error(), "job 1") {
		t.Errorf("violation does not name the job and the credit: %v", ae)
	}

	a := New()
	fast := View{Cluster: cluster.New(cluster.Config{TrainingServers: 1, GPUsPerServer: 8, TrainingGPU: cluster.A100})}
	if err := a.Audit(fast); err != nil {
		t.Fatal(err)
	}
	if err := a.Audit(f.view); err != nil {
		t.Errorf("601 GPU-seconds in 100 s failed an auditor that has seen A100 servers (bound 960): %v", err)
	}
}

func TestQueueTimeShrank(t *testing.T) {
	f := newFixture(t)
	a := New()
	f.running.QueueTime = 50
	if err := a.Audit(f.view); err != nil {
		t.Fatal(err)
	}
	f.running.QueueTime = 20 // accumulated queue time went backwards
	mustViolate(t, a.Audit(f.view), RuleProgressBounds)
}

func TestFutureEnqueue(t *testing.T) {
	f := newFixture(t)
	f.pending.LastEnqueue = int64(f.view.Now) + 100
	mustViolate(t, f.audit(), RuleProgressBounds)
}

func TestClockRegression(t *testing.T) {
	f := newFixture(t)
	a := New()
	if err := a.Audit(f.view); err != nil {
		t.Fatal(err)
	}
	f.view.Now -= 1
	mustViolate(t, a.Audit(f.view), RuleTimeMonotonic)
}

func TestWorkerOnInferenceServer(t *testing.T) {
	f := newFixture(t)
	// Move the flexible worker's server to the inference pool without
	// vacating it first — the illegal "returned busy server" transition.
	// Cluster.Move refuses this, so corrupt the pool the low-level way a
	// future refactor might: via a fresh cluster where the server was
	// returned while the job still records the worker.
	s := f.c.Server(1)
	if err := f.c.Server(1).Release(f.running.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.c.Move(s.ID, cluster.PoolInference); err != nil {
		t.Fatal(err)
	}
	mustViolate(t, f.audit(), RulePoolMembership)
}

func TestMixedGPUTypesOnNonHeteroJob(t *testing.T) {
	f := newFixture(t)
	// Give the non-hetero job a worker on a T4 inference server moved on
	// loan: spanning GPU types is only legal for Hetero jobs.
	inf := f.c.PoolServers(cluster.PoolInference)[0]
	if err := f.c.Move(inf.ID, cluster.PoolOnLoan); err != nil {
		t.Fatal(err)
	}
	if err := inf.Allocate(f.running.ID, 4, true); err != nil {
		t.Fatal(err)
	}
	f.running.Workers = append(f.running.Workers, job.Worker{Server: inf.ID, GPU: cluster.T4, GPUs: 4, Flexible: true})
	mustViolate(t, f.audit(), RulePoolMembership)
}

func TestWrongGPUTypeRecorded(t *testing.T) {
	f := newFixture(t)
	f.running.Workers[0].GPU = cluster.T4 // server 0 is a V100 machine
	mustViolate(t, f.audit(), RulePoolMembership)
}

func TestErrorRendering(t *testing.T) {
	f := newFixture(t)
	f.running.Remaining = -1
	err := f.audit()
	if err == nil {
		t.Fatal("expected violations")
	}
	msg := err.Error()
	for _, want := range []string{"after test", RuleProgressBounds, "expected Remaining >= 0", "actual Remaining = -1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error text missing %q:\n%s", want, msg)
		}
	}
}

func TestAuditorForgetsRetiredJobs(t *testing.T) {
	f := newFixture(t)
	a := New()
	if err := a.Audit(f.view); err != nil {
		t.Fatal(err)
	}
	if len(a.lastQueue) == 0 {
		t.Fatal("no queue-time history tracked")
	}
	// Both jobs retire; the next audit must drop their history.
	for _, w := range f.running.Workers {
		f.c.Server(w.Server).ReleaseJob(f.running.ID)
	}
	f.view.Pending = nil
	f.view.Running = map[int]*job.Job{}
	if err := a.Audit(f.view); err != nil {
		t.Fatal(err)
	}
	if len(a.lastQueue) != 0 {
		t.Errorf("history for retired jobs kept: %v", a.lastQueue)
	}
}
