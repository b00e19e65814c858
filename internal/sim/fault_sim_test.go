package sim

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/place"
)

// TestCrashServerQuarantinesPreemptsAndRecovers exercises the state-level
// crash path directly: a gang job on the crashed server is preempted through
// the checkpoint-restart path, the server leaves every scheduler's reach
// until recovery, and both transitions are idempotent against replays.
func TestCrashServerQuarantinesPreemptsAndRecovers(t *testing.T) {
	c := smallCluster(1, 0)
	st := NewState(c, job.Linear, 63)
	less := fifoSched{}.Less

	j := job.New(1, 0, job.Generic, 4, 1, 1, 1000)
	j.Checkpoint = true
	ws, ok := place.Gang(c, j, j.MinWorkers, place.PreferTraining(true))
	if !ok {
		t.Fatal("gang placement failed on an empty cluster")
	}
	st.Start(j, ws)
	sid := j.Workers[0].Server

	st.Now = 100
	if !st.CrashServer(sid, less) {
		t.Fatal("CrashServer of a running server was a no-op")
	}
	if s := c.Server(sid); s.ReturnTo != cluster.PoolTraining || s.DownSince != 100 {
		t.Errorf("quarantine record: return to %v, down since %v; want training, 100", s.ReturnTo, s.DownSince)
	}
	if j.State != job.Pending || j.OverheadLeft != 63 {
		t.Errorf("crashed job: state=%v overhead=%v, want pending with restart overhead", j.State, j.OverheadLeft)
	}
	if j.Preemptions != 1 || st.Crashes != 1 {
		t.Errorf("counters: job preemptions=%d state crashes=%d", j.Preemptions, st.Crashes)
	}
	if got := c.Server(sid).Pool; got != cluster.PoolQuarantine {
		t.Errorf("crashed server in pool %v, want quarantine", got)
	}
	// No scheduler may place on the quarantined server: the only server is
	// down, so gang placement must fail outright.
	if _, ok := place.Gang(c, j, j.MinWorkers, place.PreferTraining(true)); ok {
		t.Error("gang placement succeeded on a quarantined server")
	}
	// A second crash of a down server is a no-op (the schedule may carry
	// crash events for servers that are already quarantined).
	if st.CrashServer(sid, less) {
		t.Error("crashing a quarantined server should be a no-op")
	}

	st.Now = 400
	if lost := st.RecoverServer(sid); lost != 300*8 {
		t.Fatalf("RecoverServer returned %v GPU-seconds, want 300 s x 8 GPUs", lost)
	}
	if got := c.Server(sid).Pool; got != cluster.PoolTraining {
		t.Errorf("recovered server in pool %v, want training", got)
	}
	if lost := st.RecoverServer(sid); lost != 0 || st.Recoveries != 1 {
		t.Error("recovering a healthy server should be a no-op")
	}
	if _, ok := place.Gang(c, j, j.MinWorkers, place.PreferTraining(true)); !ok {
		t.Error("recovered server should accept placements again")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrashServerScalesInFlexibleOnlyWorkers: when only a job's elastic
// surplus lived on the crashed server, the job scales in and keeps running
// instead of restarting.
func TestCrashServerScalesInFlexibleOnlyWorkers(t *testing.T) {
	c := smallCluster(2, 0)
	st := NewState(c, job.Linear, 63)
	less := fifoSched{}.Less

	j := job.New(1, 0, job.Generic, 8, 1, 2, 1000)
	j.Elastic = true
	ws, ok := place.Gang(c, j, j.MinWorkers, place.PreferTraining(true))
	if !ok {
		t.Fatal("gang placement failed")
	}
	st.Start(j, ws)
	base := j.Workers[0].Server
	flex := place.AppendUpTo(nil, c, j, 1, place.Options{Flexible: true, AllowOther: true})
	if len(flex) != 1 {
		t.Fatalf("flexible scale-out placed %d workers, want 1", len(flex))
	}
	st.AddWorkers(j, flex)
	flexSrv := flex[0].Server
	if flexSrv == base {
		t.Fatalf("flexible worker landed on the base server %d; the test needs them apart", base)
	}

	if !st.CrashServer(flexSrv, less) {
		t.Fatal("crash was a no-op")
	}
	if j.State != job.Running {
		t.Errorf("job state = %v, want still running after losing only flexible workers", j.State)
	}
	if j.Preemptions != 0 || j.FlexibleWorkers() != 0 {
		t.Errorf("after crash: preemptions=%d flexible=%d, want 0/0", j.Preemptions, j.FlexibleWorkers())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestOnLoanCrashRecoversHome: in a 1+1 topology a server that crashes on
// loan to the training shard transfers home still quarantined, its record —
// back to inference, down since the crash — crossing the shards with it
// through Shards.Transfer, and recovers into its home inference pool with
// its downtime counted once.
func TestOnLoanCrashRecoversHome(t *testing.T) {
	shard := func(training, inf, firstID, id int) *cluster.Cluster {
		return cluster.New(cluster.Config{TrainingServers: training, InferenceServers: inf, FirstID: firstID, Shard: id})
	}
	e := NewSharded(ShardedConfig{
		Train:   []*cluster.Cluster{shard(1, 0, 0, 0)},
		Inf:     []*cluster.Cluster{shard(0, 1, 1, 1)},
		Scheds:  []Scheduler{fifoSched{}},
		Arbiter: modRoute{},
		RefTopo: smallCluster(1, 1),
	}, nil, 3600, Config{Audit: true})
	const sid, down = 1, 600.0
	train, inf := e.sh.States[0], e.sh.States[1]
	e.sh.Transfer(sid, 0, cluster.PoolOnLoan)
	e.faultSched = []fault.Event{{T: 100, Server: sid}, {T: 100 + down, Server: sid, Recover: true}}

	crash := event{t: 100, kind: evCrash, jobID: 0}
	e.setNow(crash.t)
	e.crashEvent(crash)
	e.auditAfter(crash)
	s := inf.Cluster.Server(sid)
	if e.sh.Owner(sid) != 1 || train.Cluster.Server(sid) != nil || s == nil {
		t.Fatalf("crashed on-loan server owned by shard %d, want its home inference shard 1", e.sh.Owner(sid))
	}
	if s.Pool != cluster.PoolQuarantine || s.ReturnTo != cluster.PoolInference || s.DownSince != crash.t {
		t.Errorf("at home: pool %v, return to %v, down since %v; want quarantine, inference, %v",
			s.Pool, s.ReturnTo, s.DownSince, crash.t)
	}

	up := event{t: crash.t + down, kind: evRecover, jobID: 1}
	e.setNow(up.t)
	if lost := LostCapacity(0, e.sh.States...); lost != down*8 {
		t.Errorf("residual before recovery = %v GPU-seconds, want %v", lost, down*8)
	}
	e.recoverEvent(up)
	e.auditAfter(up)
	if s.Pool != cluster.PoolInference || inf.Cluster.PoolSize(cluster.PoolInference) != 1 {
		t.Errorf("recovered server in pool %v of shard %d, want its home inference pool", s.Pool, e.sh.Owner(sid))
	}
	if lost := LostCapacity(e.lostGPUSec, e.sh.States...); e.lostGPUSec != down*8 || lost != down*8 {
		t.Errorf("lost capacity: %v recovered, %v in total; want %v once", e.lostGPUSec, lost, down*8)
	}
}

// TestOwnerReadsTheClusters: a server's home is the shard built with its
// ID and its owner the shard holding it now, both read off the shard
// clusters as a loan moves it; a server attached to no shard is a
// cross-shard violation, not shard 0.
func TestOwnerReadsTheClusters(t *testing.T) {
	sh := NewShards(ShardedConfig{
		Train:  []*cluster.Cluster{cluster.New(cluster.Config{TrainingServers: 2})},
		Inf:    []*cluster.Cluster{cluster.New(cluster.Config{InferenceServers: 2, FirstID: 2, Shard: 1})},
		Scheds: []Scheduler{fifoSched{}},
	}, Config{})
	for sid, want := range []int{0, 0, 1, 1} {
		if sh.Home(sid) != want || sh.Owner(sid) != want {
			t.Errorf("server %d: home %d, owner %d; want both %d", sid, sh.Home(sid), sh.Owner(sid), want)
		}
	}
	if sh.Home(4) != -1 {
		t.Errorf("server 4, built by no shard, has home %d", sh.Home(4))
	}
	sh.Transfer(3, 0, cluster.PoolOnLoan)
	if sh.Home(3) != 1 || sh.Owner(3) != 0 {
		t.Errorf("lent server 3: home %d, owner %d; want 1, 0", sh.Home(3), sh.Owner(3))
	}
	if _, err := sh.States[0].Cluster.Detach(3); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if e, ok := recover().(*invariant.Error); !ok || e.Violations[0].Rule != invariant.RuleCrossShard {
			t.Errorf("Owner of a detached server raised %v, want a %s violation", e, invariant.RuleCrossShard)
		}
	}()
	t.Errorf("Owner of a detached server answered %d", sh.Owner(3))
}

// TestAuditHoldsServersAtHomeUnlessLent: in a 1+2 topology the auditor
// passes the last inference shard's server lent into the training shard
// and fails a
// server away from home outside the on-loan pool, one lent into another
// inference shard, and one in the on-loan pool of its own home.
func TestAuditHoldsServersAtHomeUnlessLent(t *testing.T) {
	for _, c := range []struct {
		name string
		to   int
		pool cluster.Pool
		ok   bool
	}{
		{"lent to training", 0, cluster.PoolOnLoan, true},
		{"training pool of the borrower", 0, cluster.PoolTraining, false},
		{"lent to an inference shard", 1, cluster.PoolOnLoan, false},
		{"on loan at home", 2, cluster.PoolOnLoan, false},
	} {
		e := NewSharded(ShardedConfig{
			Train: []*cluster.Cluster{cluster.New(cluster.Config{TrainingServers: 1})},
			Inf: []*cluster.Cluster{
				cluster.New(cluster.Config{InferenceServers: 1, FirstID: 1, Shard: 1}),
				cluster.New(cluster.Config{InferenceServers: 1, FirstID: 2, Shard: 2}),
			},
			Scheds:  []Scheduler{fifoSched{}},
			Arbiter: modRoute{},
			RefTopo: smallCluster(1, 2),
		}, nil, 3600, Config{Audit: true})
		e.sh.Transfer(2, c.to, c.pool)
		func() {
			defer func() {
				e, _ := recover().(*invariant.Error)
				if failed := e != nil && e.Violations[0].Rule == invariant.RuleCrossShard; failed == c.ok {
					t.Errorf("%s: audit raised %v", c.name, e)
				}
			}()
			e.auditAfter(event{kind: evSched})
		}()
	}
}

// TestEngineFaultsCompleteAllJobs runs the full engine under a crash-heavy
// plan with the auditor on: every job must still complete (requeued, never
// lost), crashes and recoveries must both fire, and the books must balance.
func TestEngineFaultsCompleteAllJobs(t *testing.T) {
	c := smallCluster(4, 0)
	jobs := make([]*job.Job, 0, 40)
	for k := 0; k < 40; k++ {
		j := job.New(k, int64(k*613%20000), job.Generic, 1+k%4, 1, 1, float64(400+131*k%2500))
		j.Checkpoint = k%2 == 0
		jobs = append(jobs, j)
	}
	plan := &fault.Plan{Seed: 9, ServerMTBF: 6000, ServerMTTR: 400, StragglerFrac: 0.2}
	e := New(c, jobs, 400000, fifoSched{}, nil, Config{Audit: true, Faults: plan})
	res := e.Run()
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d/%d jobs under crashes", res.Completed, len(jobs))
	}
	if res.Crashes == 0 || res.Recoveries == 0 {
		t.Errorf("crashes=%d recoveries=%d, want both > 0 (MTBF 6000 over 4 servers)", res.Crashes, res.Recoveries)
	}
	if res.Crashes < res.Recoveries {
		t.Errorf("more recoveries (%d) than crashes (%d)", res.Recoveries, res.Crashes)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if used := c.UsedGPUs(cluster.PoolTraining) + c.UsedGPUs(cluster.PoolQuarantine); used != 0 {
		t.Errorf("%d GPUs still allocated after all jobs completed", used)
	}
}

// TestEngineFaultRunsAreDeterministic: the same plan and trace replayed
// twice produce identical results — crash timelines are pre-generated from
// the plan seed, never drawn from execution order.
func TestEngineFaultRunsAreDeterministic(t *testing.T) {
	run := func() *Result {
		c := smallCluster(3, 0)
		jobs := make([]*job.Job, 0, 30)
		for k := 0; k < 30; k++ {
			jobs = append(jobs, job.New(k, int64(k*401%10000), job.Generic, 1+k%3, 1, 1, float64(300+89*k%1800)))
		}
		plan := &fault.Plan{Seed: 4, ServerMTBF: 5000, ServerMTTR: 300, StragglerFrac: 0.3}
		return New(c, jobs, 300000, fifoSched{}, nil, Config{Audit: true, Faults: plan}).Run()
	}
	a, b := run(), run()
	if a.Crashes == 0 {
		t.Fatal("plan injected no crashes; the determinism check is vacuous")
	}
	if a.Crashes != b.Crashes || a.Recoveries != b.Recoveries ||
		a.Completed != b.Completed || a.Preemptions != b.Preemptions ||
		a.JCTSummary() != b.JCTSummary() {
		t.Errorf("faulted runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// FuzzFaultSchedules replays random fault plans — crash/recovery timelines,
// straggler fractions — through the engine with the auditor on. The seed
// corpus runs in the ordinary suite; `go test -fuzz=FuzzFaultSchedules
// ./internal/sim/` explores further. A finding means some fault schedule
// breaks state accounting or loses a job.
func FuzzFaultSchedules(f *testing.F) {
	f.Add(int64(1), uint16(5000), uint16(300), uint8(10), uint8(24), uint16(0), false)
	f.Add(int64(7), uint16(900), uint16(60), uint8(0), uint8(40), uint16(0), false)
	f.Add(int64(-3), uint16(20000), uint16(5), uint8(90), uint8(12), uint16(0), false)
	f.Add(int64(42), uint16(1), uint16(1), uint8(50), uint8(8), uint16(0), false)
	f.Add(int64(11), uint16(9000), uint16(400), uint8(20), uint8(20), uint16(6000), false)
	f.Add(int64(23), uint16(7000), uint16(200), uint8(0), uint8(32), uint16(4000), true)
	f.Add(int64(-8), uint16(0), uint16(0), uint8(30), uint8(16), uint16(900), true)
	f.Fuzz(func(t *testing.T, seed int64, mtbf, mttr uint16, stragglerPct, njobs uint8, rackout uint16, degraded bool) {
		n := int(njobs%48) + 4
		jobs := make([]*job.Job, 0, n)
		for k := 0; k < n; k++ {
			jobs = append(jobs, job.New(k, int64(k*271%8000), job.Generic, 1+k%4, 1, 1, float64(120+61*k%900)))
			jobs[k].Checkpoint = k%3 == 0
		}
		plan := &fault.Plan{
			Seed:          seed,
			ServerMTBF:    float64(mtbf%30000) + 1,
			ServerMTTR:    float64(mttr%2000) + 1,
			StragglerFrac: float64(stragglerPct%101) / 100,
		}
		if rackout > 0 {
			// Correlated outages: the whole 3-server training rack goes
			// down atomically — the worst-case blast radius for this shape.
			plan.RackOutMTBF = float64(rackout%25000) + 500
			plan.RackMTTR = 400
		}
		if err := plan.Normalize().Validate(); err != nil {
			t.Skip(err)
		}
		cfg := Config{Audit: true, Faults: plan}
		if degraded {
			cfg.BackoffBase = 30
			cfg.BackoffCap = 500
			cfg.HystCrashes = 2
			cfg.HystWindow = 3000
			cfg.HystHold = 600
		}
		c := cluster.New(cluster.Config{TrainingServers: 3, InferenceServers: 1})
		e := New(c, jobs, 250000, fifoSched{}, nil, cfg)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("invariant violation under fault schedule %+v: %v", *plan, r)
			}
		}()
		res := e.Run()
		if res.Completed != n {
			t.Fatalf("lost jobs under faults: completed %d/%d (plan %+v)", res.Completed, n, *plan)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
