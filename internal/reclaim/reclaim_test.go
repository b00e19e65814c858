package reclaim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// fig5 builds the reclaiming example of Figure 5 / Table 1: six 8-GPU
// on-loan servers hosting four jobs:
//
//	job a: 4 GPUs on server 0 and 4 on server 1
//	job b: 8 GPUs on server 2
//	job c: 8 GPUs on server 3 and 2 on server 4
//	job f: 2 GPUs on server 4 and 8 on server 5
func fig5(t *testing.T) ([]*cluster.Server, map[int]*job.Job) {
	t.Helper()
	servers := make([]*cluster.Server, 6)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	add := func(id int, spread map[int]int) {
		j := job.New(id, 0, job.Generic, 1, 1, 1, 100)
		j.State = job.Running
		for sid, g := range spread {
			if err := servers[sid].Allocate(id, g, false); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < g; k++ {
				j.Workers = append(j.Workers, job.Worker{Server: sid, GPU: cluster.T4, GPUs: 1})
			}
		}
		jobs[id] = j
	}
	add(100, map[int]int{0: 4, 1: 4})
	add(101, map[int]int{2: 8})
	add(102, map[int]int{3: 8, 4: 2})
	add(103, map[int]int{4: 2, 5: 8})
	return servers, jobs
}

func lookupOf(jobs map[int]*job.Job) func(int) *job.Job {
	return func(id int) *job.Job { return jobs[id] }
}

func TestCostOfTable1(t *testing.T) {
	servers, jobs := fig5(t)
	lookup := lookupOf(jobs)
	// Table 1, last column: server preemption cost = sum of each job's
	// server fraction (paper numbers 0.5, 0.5, 1, 0.5, 1, 0.5).
	want := []float64{0.5, 0.5, 1, 0.5, 1, 0.5}
	for i, s := range servers {
		if got := CostOf(s, lookup); math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("server %d cost = %v, want %v", i+1, got, want[i])
		}
	}
}

func TestLyraPlanFig5OptimalPair(t *testing.T) {
	servers, jobs := fig5(t)
	plan := Lyra{}.Plan(servers, lookupOf(jobs), 2)
	// Servers 1 and 2 (IDs 0 and 1) are the optimal choice: one
	// preemption (§4).
	if len(plan.Servers) != 2 || plan.Servers[0] != 0 || plan.Servers[1] != 1 {
		t.Fatalf("planned servers %v, want [0 1]", plan.Servers)
	}
	if len(plan.PreemptJobs) != 1 || plan.PreemptJobs[0] != 100 {
		t.Errorf("preempted %v, want [100]", plan.PreemptJobs)
	}
}

func TestLyraPlanMatchesOptimalOnFig5(t *testing.T) {
	for n := 1; n <= 6; n++ {
		servers, jobs := fig5(t)
		lp := Lyra{}.Plan(servers, lookupOf(jobs), n)
		servers2, jobs2 := fig5(t)
		op := Optimal{}.Plan(servers2, lookupOf(jobs2), n)
		if len(lp.PreemptJobs) != len(op.PreemptJobs) {
			t.Errorf("n=%d: lyra preempts %d jobs, optimal %d", n, len(lp.PreemptJobs), len(op.PreemptJobs))
		}
	}
}

func TestLyraPrefersEmptyAndFlexibleServers(t *testing.T) {
	servers := make([]*cluster.Server, 3)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	// Server 0: base job; server 1: flexible workers only; server 2 empty.
	j0 := job.New(1, 0, job.Generic, 4, 1, 1, 100)
	j0.State = job.Running
	if err := servers[0].Allocate(1, 4, false); err != nil {
		t.Fatal(err)
	}
	j0.Workers = []job.Worker{{Server: 0, GPU: cluster.T4, GPUs: 4}}
	jobs[1] = j0
	j1 := job.New(2, 0, job.Generic, 4, 1, 2, 100)
	j1.Elastic = true
	j1.State = job.Running
	if err := servers[1].Allocate(2, 4, true); err != nil {
		t.Fatal(err)
	}
	j1.Workers = []job.Worker{{Server: 1, GPU: cluster.T4, GPUs: 4, Flexible: true}}
	jobs[2] = j1

	plan := Lyra{}.Plan(servers, lookupOf(jobs), 2)
	if len(plan.PreemptJobs) != 0 {
		t.Fatalf("no preemption needed, got %v", plan.PreemptJobs)
	}
	wantServers := map[int]bool{1: true, 2: true}
	for _, sid := range plan.Servers {
		if !wantServers[sid] {
			t.Errorf("picked server %d, want empty/flexible-only ones", sid)
		}
	}
	if plan.FlexOnly != 2 {
		t.Errorf("FlexOnly = %d, want 2", plan.FlexOnly)
	}
	if !slices.Equal(plan.ScaleIn, [][2]int{{2, 1}}) {
		t.Errorf("ScaleIn = %v, want job 2 on server 1", plan.ScaleIn)
	}
}

// TestFlexOnlyCountsServerFreedByEarlierPick builds the case FlexOnly's
// definition turns on: phase-2 pick A (server 0) preempts job 10, the only
// base job on server B (server 1), so B then costs nothing and is vacated by
// scaling job 20's flexible worker in. B counts as a flexible-only release
// even though it hosted a base job when planning began.
func TestFlexOnlyCountsServerFreedByEarlierPick(t *testing.T) {
	servers := make([]*cluster.Server, 3)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	add := func(id int, elastic bool, workers ...job.Worker) {
		j := job.New(id, 0, job.Generic, 2, 1, 4, 100)
		j.Elastic = elastic
		j.State = job.Running
		for _, w := range workers {
			if err := servers[w.Server].Allocate(id, w.GPUs, w.Flexible); err != nil {
				t.Fatal(err)
			}
		}
		j.Workers = workers
		jobs[id] = j
	}
	add(10, false, job.Worker{Server: 0, GPU: cluster.T4, GPUs: 4}, job.Worker{Server: 1, GPU: cluster.T4, GPUs: 4})
	add(20, true, job.Worker{Server: 2, GPU: cluster.T4, GPUs: 2}, job.Worker{Server: 1, GPU: cluster.T4, GPUs: 2, Flexible: true})
	add(30, false, job.Worker{Server: 2, GPU: cluster.T4, GPUs: 4})

	plan := Lyra{}.Plan(servers, lookupOf(jobs), 2)
	wantPicks := []Pick{
		{Server: 0, Phase: 2, Cost: 0.5, Reuse: 4},
		{Server: 1, Phase: 2},
	}
	if !slices.Equal(plan.Picks, wantPicks) {
		t.Errorf("picks %+v, want %+v", plan.Picks, wantPicks)
	}
	if !slices.Equal(plan.Servers, []int{0, 1}) || !slices.Equal(plan.PreemptJobs, []int{10}) {
		t.Errorf("servers %v preempting %v, want [0 1] preempting [10]", plan.Servers, plan.PreemptJobs)
	}
	if !slices.Equal(plan.ScaleIn, [][2]int{{20, 1}}) {
		t.Errorf("ScaleIn = %v, want job 20 on server 1", plan.ScaleIn)
	}
	if plan.FlexOnly != 1 {
		t.Errorf("FlexOnly = %d, want 1 (server 1, freed by the first pick)", plan.FlexOnly)
	}
}

func TestLyraPlanShortage(t *testing.T) {
	servers, jobs := fig5(t)
	plan := Lyra{}.Plan(servers, lookupOf(jobs), 10)
	if len(plan.Servers) != 6 {
		t.Errorf("asked 10 of 6 servers: planned %d, want all 6", len(plan.Servers))
	}
	if len(plan.PreemptJobs) != 4 {
		t.Errorf("preempted %v, want all 4 jobs", plan.PreemptJobs)
	}
}

func TestSCFPicksFewestJobs(t *testing.T) {
	servers, jobs := fig5(t)
	plan := SCF{}.Plan(servers, lookupOf(jobs), 1)
	// All servers host 1 job except server 4 (ID 4) which hosts 2; SCF
	// takes the lowest-ID 1-job server.
	if len(plan.Servers) != 1 || plan.Servers[0] != 0 {
		t.Errorf("SCF picked %v, want [0]", plan.Servers)
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	servers, jobs := fig5(t)
	p1 := Random{Rng: rand.New(rand.NewSource(5))}.Plan(servers, lookupOf(jobs), 3)
	servers2, jobs2 := fig5(t)
	p2 := Random{Rng: rand.New(rand.NewSource(5))}.Plan(servers2, lookupOf(jobs2), 3)
	if len(p1.Servers) != 3 || len(p2.Servers) != 3 {
		t.Fatalf("plans sized %d/%d", len(p1.Servers), len(p2.Servers))
	}
	for i := range p1.Servers {
		if p1.Servers[i] != p2.Servers[i] {
			t.Fatal("same seed produced different random plans")
		}
	}
}

func TestOptimalRefusesLargeInput(t *testing.T) {
	servers := make([]*cluster.Server, 30)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	plan := Optimal{}.Plan(servers, func(int) *job.Job { return nil }, 2)
	if len(plan.Servers) != 0 {
		t.Error("optimal should refuse inputs beyond MaxOptimalServers")
	}
}

// randomInstance is one random reclaiming instance: 4-9 on-loan servers
// hosting 2-9 jobs of 2-GPU workers spread over up to three servers each,
// and a demand of 1 to all of the servers.
func randomInstance(t *testing.T, seed int64) ([]*cluster.Server, func(int) *job.Job, int) {
	rng := rand.New(rand.NewSource(seed))
	nServers := rng.Intn(6) + 4
	servers := make([]*cluster.Server, nServers)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	nJobs := rng.Intn(8) + 2
	for id := 0; id < nJobs; id++ {
		j := job.New(id, 0, job.Generic, 1, 1, 1, 100)
		j.State = job.Running
		spread := rng.Intn(3) + 1
		for s := 0; s < spread; s++ {
			sid := rng.Intn(nServers)
			if servers[sid].Free() < 2 {
				continue
			}
			if err := servers[sid].Allocate(id, 2, false); err != nil {
				t.Fatal(err)
			}
			j.Workers = append(j.Workers, job.Worker{Server: sid, GPU: cluster.T4, GPUs: 2})
		}
		if len(j.Workers) > 0 {
			jobs[id] = j
		}
	}
	return servers, lookupOf(jobs), rng.Intn(nServers) + 1
}

// TestPropertyLyraNearOptimal checks on random instances what holds of every
// instance — both plans free exactly the servers asked for, and the
// exhaustive optimum, which minimizes preemptions, never preempts more than
// Lyra — and that in aggregate Lyra preempts no more than SCF and Random:
// the statistical dominance Figure 10 reports. How far Lyra may trail the
// optimum on one instance is an observation, not a bound (see
// TestLyraTrailsOptimalOnKnownInstance).
func TestPropertyLyraNearOptimal(t *testing.T) {
	totalLyra, totalSCF, totalRandom, totalOpt := 0, 0, 0, 0
	f := func(seed int64) bool {
		servers, lookup, n := randomInstance(t, seed)
		lp := Lyra{}.Plan(servers, lookup, n)
		op := Optimal{}.Plan(servers, lookup, n)
		sp := SCF{}.Plan(servers, lookup, n)
		rp := Random{Rng: rand.New(rand.NewSource(seed + 1))}.Plan(servers, lookup, n)
		if len(lp.Servers) != n || len(op.Servers) != n {
			t.Logf("seed %d: %d servers wanted, lyra freed %d, optimal %d", seed, n, len(lp.Servers), len(op.Servers))
			return false
		}
		if len(op.PreemptJobs) > len(lp.PreemptJobs) {
			t.Logf("seed %d: optimal %d preemptions, lyra %d", seed, len(op.PreemptJobs), len(lp.PreemptJobs))
			return false
		}
		totalLyra += len(lp.PreemptJobs)
		totalSCF += len(sp.PreemptJobs)
		totalRandom += len(rp.PreemptJobs)
		totalOpt += len(op.PreemptJobs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if totalLyra > totalSCF {
		t.Errorf("aggregate preemptions: lyra %d > SCF %d", totalLyra, totalSCF)
	}
	if totalLyra > totalRandom {
		t.Errorf("aggregate preemptions: lyra %d > random %d", totalLyra, totalRandom)
	}
	t.Logf("aggregate preemptions: optimal=%d lyra=%d scf=%d random=%d", totalOpt, totalLyra, totalSCF, totalRandom)
}

// TestLyraTrailsOptimalOnKnownInstance pins an instance on which Lyra's
// heuristic preempts two jobs more than the exhaustive optimum: the gap the
// property test used to bound at one is not a guarantee the heuristic makes.
func TestLyraTrailsOptimalOnKnownInstance(t *testing.T) {
	servers, lookup, n := randomInstance(t, 5485640263294657516)
	lp := Lyra{}.Plan(servers, lookup, n)
	op := Optimal{}.Plan(servers, lookup, n)
	if len(lp.Servers) != n || len(op.Servers) != n {
		t.Fatalf("%d servers wanted, lyra freed %d, optimal %d", n, len(lp.Servers), len(op.Servers))
	}
	if got, opt := len(lp.PreemptJobs), len(op.PreemptJobs); got != 6 || opt != 4 {
		t.Errorf("lyra preempts %d jobs and the optimum %d, want the measured 6 and 4", got, opt)
	}
}

// TestCostSumsSharesInJobIDOrder pins the order of the cost sum: one on-loan
// server hosts base workers of three jobs that span 2, 3 and 7 servers, and
// the shares 1/2, 1/3 and 1/7 sum to different floats in different orders.
// The cost is written verbatim into reclaim.plan events, so every plan must
// carry the ID-ordered sum, bit for bit, whatever order the job set iterates
// in.
func TestCostSumsSharesInJobIDOrder(t *testing.T) {
	servers := make([]*cluster.Server, 8)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	for id, span := range map[int]int{1: 2, 2: 3, 3: 7} {
		j := job.New(id, 0, job.Generic, 1, span, span, 100)
		j.State = job.Running
		for sid := 0; sid < span; sid++ {
			if err := servers[sid].Allocate(id, 1, false); err != nil {
				t.Fatal(err)
			}
			j.Workers = append(j.Workers, job.Worker{Server: sid, GPU: cluster.T4, GPUs: 1})
		}
		jobs[id] = j
	}
	// Float64 variables, not constants: constant arithmetic is exact.
	half, third, seventh := 1/float64(2), 1/float64(3), 1/float64(7)
	want := (half + third) + seventh
	if alt := (third + seventh) + half; alt == want {
		t.Fatal("the shares sum alike in every order; the fixture cannot tell orders apart")
	}
	for call := 0; call < 200; call++ {
		plan := Lyra{}.Plan(servers[:1], lookupOf(jobs), 1)
		if len(plan.Picks) != 1 || plan.Picks[0].Phase != 2 {
			t.Fatalf("picks %+v, want one phase-2 pick of server 0", plan.Picks)
		}
		if got := plan.Picks[0].Cost; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: cost %b, want the job-ID-ordered sum %b", call, got, want)
		}
	}
}
