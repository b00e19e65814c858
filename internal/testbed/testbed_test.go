package testbed

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/job"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

func TestContainerLifecycle(t *testing.T) {
	rm := NewResourceManager(5)
	c, err := rm.Launch(1, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != ContainerLaunching {
		t.Errorf("fresh container state = %v", c.State())
	}
	// Readiness is a function of simulated time alone: still launching
	// short of the latency, running from the first Advance at or past it.
	rm.Advance(4)
	if c.State() != ContainerLaunching {
		t.Errorf("state at t=4 with a 5 s launch latency = %v", c.State())
	}
	rm.Advance(5)
	if c.State() != ContainerRunning {
		t.Fatalf("state at t=5 with a 5 s launch latency = %v", c.State())
	}
	if rm.Live() != 1 {
		t.Errorf("live containers = %d", rm.Live())
	}
	if err := rm.Kill(c.ID); err != nil {
		t.Fatal(err)
	}
	if c.State() != ContainerKilled || rm.Live() != 0 {
		t.Errorf("after kill: state=%v live=%d", c.State(), rm.Live())
	}
	if err := rm.Kill(c.ID); err == nil {
		t.Error("double kill should fail")
	}
	launched, killed := rm.Stats()
	if launched != 1 || killed != 1 {
		t.Errorf("stats = %d launched, %d killed", launched, killed)
	}
	// A container killed while launching never comes up.
	d, err := rm.Launch(1, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Kill(d.ID); err != nil {
		t.Fatal(err)
	}
	rm.Advance(100)
	if d.State() != ContainerKilled {
		t.Errorf("container killed while launching is %v after its latency", d.State())
	}
}

// TestLaunchLatencyIsCharged: a gang launched at t=0 trains from the instant
// its last container came up, not from the previous tick — a tick longer
// than the latency must not hide it.
func TestLaunchLatencyIsCharged(t *testing.T) {
	// workDone launches a 2x2-GPU gang at t=0 under the given launch
	// latency, ticks at the given times and returns the GPU-seconds credited.
	workDone := func(delay float64, ticks ...float64) float64 {
		j := job.New(1, 0, job.Generic, 2, 2, 2, 100)
		j.State = job.Running
		j.Workers = []job.Worker{
			{Server: 0, GPU: cluster.V100, GPUs: 2},
			{Server: 1, GPU: cluster.V100, GPUs: 2},
		}
		rm := NewResourceManager(delay)
		st := bareState()
		ct := NewController(j, st, rm, 0)
		for _, w := range j.Workers {
			if _, err := rm.Launch(j.ID, w.Server, w.GPUs, false); err != nil {
				t.Fatal(err)
			}
		}
		for _, now := range ticks {
			tick(st, rm, ct, now)
		}
		return j.Work - j.Remaining
	}
	if got := workDone(5, 10); got != 4*5 {
		t.Errorf("delay 5: Tick(10) credited %v GPU-seconds, want %v (4 GPUs x 5 s, not x 10 s)", got, 4*5)
	}
	for delay, want := range map[float64]float64{0: 4 * 30, 5: 4 * 25, 25: 4 * 5} {
		if got := workDone(delay, 10, 20, 30); got != want {
			t.Errorf("launch delay %v: %v GPU-seconds credited by t=30, want %v", delay, got, want)
		}
	}
}

func TestResourceManagerJobIndex(t *testing.T) {
	rm := NewResourceManager(1)
	a, err := rm.Launch(1, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Launch(1, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Launch(2, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	if got := len(rm.JobContainers(1)); got != 2 {
		t.Errorf("job 1 containers = %d", got)
	}
	if err := rm.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(rm.JobContainers(1)); got != 1 {
		t.Errorf("job 1 containers after release = %d", got)
	}
}

// bareState is a State over the testbed cluster with nothing placed: enough
// for a controller to grant progress through.
func bareState() *sim.State {
	return sim.NewState(cluster.New(cluster.TestbedConfig()), job.Linear, 63)
}

// tick is the top of one tick of the prototype's loop for one job: the clock
// moves, due containers come up, the controller grants progress.
func tick(st *sim.State, rm *ResourceManager, ct *Controller, now float64) bool {
	st.Now = now
	rm.Advance(now)
	return ct.Tick(now)
}

// launchAt launches one container for j's worker w that reports ready at
// readyAt.
func launchAt(t *testing.T, rm *ResourceManager, j *job.Job, w job.Worker, readyAt float64) {
	t.Helper()
	rm.launchDelay = readyAt - rm.now
	if _, err := rm.Launch(j.ID, w.Server, w.GPUs, w.Flexible); err != nil {
		t.Fatal(err)
	}
}

func TestControllerGangGate(t *testing.T) {
	j := job.New(1, 0, job.Generic, 2, 2, 4, 100)
	j.Elastic = true
	j.State = job.Running
	j.Workers = []job.Worker{
		{Server: 0, GPU: cluster.V100, GPUs: 2},
		{Server: 1, GPU: cluster.V100, GPUs: 2},
	}
	rm, st := NewResourceManager(0), bareState()
	ct := NewController(j, st, rm, 0)
	// One container running, one still launching: below the base demand,
	// no progress.
	launchAt(t, rm, j, j.Workers[0], 0)
	launchAt(t, rm, j, j.Workers[1], 50)
	tick(st, rm, ct, 40)
	if j.Remaining != j.Work {
		t.Errorf("progress before the gang was ready: remaining %v of %v", j.Remaining, j.Work)
	}
	// Second container comes up at t=50: progress accrues at full
	// throughput from then on.
	tick(st, rm, ct, 100)
	want := j.Work - 4*50 // 4 GPUs x 50 s
	if j.Remaining != want {
		t.Errorf("remaining = %v, want %v", j.Remaining, want)
	}
}

func TestControllerOverheadConsumedFirst(t *testing.T) {
	j := job.New(1, 0, job.Generic, 2, 1, 1, 100)
	j.State = job.Running
	j.OverheadLeft = 30
	j.Workers = []job.Worker{{Server: 0, GPU: cluster.V100, GPUs: 2}}
	rm, st := NewResourceManager(0), bareState()
	ct := NewController(j, st, rm, 0)
	launchAt(t, rm, j, j.Workers[0], 0)
	tick(st, rm, ct, 20)
	if j.Remaining != j.Work || j.OverheadLeft != 10 {
		t.Errorf("overhead accounting: remaining=%v overhead=%v", j.Remaining, j.OverheadLeft)
	}
	tick(st, rm, ct, 50) // 10 s of remaining overhead, then 20 s of work at 2 GPUs
	if j.OverheadLeft != 0 || j.Remaining != j.Work-40 {
		t.Errorf("after overhead: remaining=%v overhead=%v", j.Remaining, j.OverheadLeft)
	}
}

// TestStateCreditsNothingAfterTick is the double-credit regression: once the
// controller has ticked a job to now, every State mutation at the same now —
// scale-out, scale-in, preemption, completion — leaves Remaining and
// OverheadLeft exactly where the tick put them. (Before State.Retire each of
// the four re-credited the whole interval since the job's last mutation.)
func TestStateCreditsNothingAfterTick(t *testing.T) {
	less := (&sched.FIFO{}).Less
	for name, mutate := range map[string]func(st *sim.State, j *job.Job){
		"AddWorkers": func(st *sim.State, j *job.Job) {
			if err := st.Cluster.Server(2).Allocate(j.ID, 2, true); err != nil {
				t.Fatal(err)
			}
			st.AddWorkers(j, []job.Worker{{Server: 2, GPU: cluster.V100, GPUs: 2, Flexible: true}})
		},
		"RemoveFlexibleWorkers": func(st *sim.State, j *job.Job) {
			if n := st.RemoveFlexibleWorkers(j, 1); n != 1 {
				t.Fatalf("removed %d flexible workers, want 1", n)
			}
		},
		"Preempt": func(st *sim.State, j *job.Job) { st.Preempt(j, less) },
		"Finish":  func(st *sim.State, j *job.Job) { st.Finish(j) },
	} {
		j := job.New(1, 0, job.Generic, 2, 2, 4, 1000)
		j.Elastic, j.Checkpoint = true, true
		st, rm := bareState(), NewResourceManager(0)
		workers := []job.Worker{
			{Server: 0, GPU: cluster.V100, GPUs: 2},
			{Server: 0, GPU: cluster.V100, GPUs: 2},
			{Server: 1, GPU: cluster.V100, GPUs: 2, Flexible: true},
		}
		for _, w := range workers {
			if err := st.Cluster.Server(w.Server).Allocate(j.ID, w.GPUs, w.Flexible); err != nil {
				t.Fatal(err)
			}
			launchAt(t, rm, j, w, 0)
		}
		st.Enqueue(j, less)
		st.Start(j, workers)
		st.CompactPending()
		j.OverheadLeft = 200 // outlasts the first tick, so both fields are live
		ct := NewController(j, st, rm, 0)
		tick(st, rm, ct, 100)
		tick(st, rm, ct, 300)
		// 200 s of overhead, then 100 s on 6 GPUs.
		if j.OverheadLeft != 0 || j.Remaining != j.Work-600 {
			t.Fatalf("%s: after the ticks remaining=%v overhead=%v, want %v and 0", name, j.Remaining, j.OverheadLeft, j.Work-600)
		}
		mutate(st, j)
		wantOverhead := 0.0
		if name == "Preempt" {
			wantOverhead = 63 // the restart cost Preempt itself charges
		}
		if j.Remaining != j.Work-600 || j.OverheadLeft != wantOverhead {
			t.Errorf("%s at the tick's own now moved progress: remaining=%v overhead=%v, want %v and %v",
				name, j.Remaining, j.OverheadLeft, j.Work-600, wantOverhead)
		}
	}
}

// testConfig is the prototype at the scale lyra.RunTestbed runs it (10 s /
// 60 s epochs, the measured 63 s restart cost), auditing every tick.
func testConfig() Config {
	return Config{
		Cluster:       cluster.TestbedConfig(),
		SchedInterval: 10, OrchInterval: 60, PreemptOverhead: 63, Scaling: job.Linear,
		Audit: true,
	}
}

// lyraOrchestrator is the Lyra loan protocol over the inference side of the
// testbed cluster for tr, built the way the root package assembles it.
func lyraOrchestrator(seed int64, tr *trace.Trace, less func(a, b *job.Job) bool) *orchestrator.Orchestrator {
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(seed+13), tr.Horizon, 300)
	inf := inference.NewScheduler(util, cluster.TestbedConfig().InferenceServers, 0.02)
	o := orchestrator.New(inf, reclaim.Lyra{}, less)
	o.IncludeElasticDemand = true
	return o
}

// TestEndToEndFIFO runs the full testbed with the FIFO scheduler on a small
// workload: every job must complete, and the cluster must be clean.
func TestEndToEndFIFO(t *testing.T) {
	tr := trace.GenerateTestbed(3, 25)
	tb := New(testConfig(), tr, &sched.FIFO{}, nil)
	res := tb.Run(tr.Horizon)
	stats := res.Prototype
	if res.Completed != 25 {
		t.Fatalf("completed %d/25", res.Completed)
	}
	if jct := res.JCTSummary(); jct.N != 25 || jct.Mean <= 0 {
		t.Errorf("JCT summary = %+v", jct)
	}
	if stats.ContainersLaunched == 0 {
		t.Error("no containers launched")
	}
	if err := tb.st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if used := tb.st.Cluster.UsedGPUs(cluster.PoolTraining) + tb.st.Cluster.UsedGPUs(cluster.PoolOnLoan); used != 0 {
		t.Errorf("%d GPUs still allocated after all jobs completed", used)
	}
}

// TestEndToEndLyraWithLoaning runs the full stack — Lyra scheduler,
// orchestrator, pool moves — and checks the books stay balanced.
func TestEndToEndLyraWithLoaning(t *testing.T) {
	tr := trace.GenerateTestbed(5, 30)
	s := sched.NewLyra()
	tb := New(testConfig(), tr, s, lyraOrchestrator(5, tr, s.Less))
	res := tb.Run(tr.Horizon)
	stats := res.Prototype
	if res.Completed != 30 {
		t.Fatalf("completed %d/30", res.Completed)
	}
	if stats.ContainersLaunched == 0 {
		t.Error("no worker containers launched")
	}
	if err := tb.st.Cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGenerateTestbedWorkload checks the §7.5 workload shape.
func TestGenerateTestbedWorkload(t *testing.T) {
	tr := trace.GenerateTestbed(1, 180)
	if len(tr.Jobs) != 180 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	elastic := 0
	for _, j := range tr.Jobs {
		if j.Elastic {
			elastic++
		}
		if j.MaxGPUs() > 16 {
			t.Errorf("job %d demands %d GPUs, cap is 16 (half the cluster)", j.ID, j.MaxGPUs())
		}
		rt := j.MinRuntime(job.Linear)
		if rt < 120-1e-9 || rt > 7200+1e-9 {
			t.Errorf("job %d runtime %v outside [2 min, 2 h]", j.ID, rt)
		}
		if j.Arrival < 0 || j.Arrival >= 8*3600 {
			t.Errorf("job %d arrives at %d outside the 8-hour window", j.ID, j.Arrival)
		}
	}
	if elastic < 8 || elastic > 12 {
		t.Errorf("elastic jobs = %d, want ~10 (§7.5)", elastic)
	}
}
