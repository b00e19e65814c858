package sched

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/sim"
)

// reclaimFlexibleRef is make-room's scale-in as written before the
// flexible-server index: a walk over every server of each eligible pool,
// skipping those without flexible GPUs, reading each server's jobs through
// Jobs(). It is the reference reclaimFlexible must match victim for victim.
func reclaimFlexibleRef(st *sim.State, j *job.Job, pp poolPolicy) int {
	want := j.BaseGPUs()
	freed := 0
	saved := st.Cause
	st.Cause = "make-room"
	defer func() { st.Cause = saved }()
	for _, pool := range []cluster.Pool{pp.prefer, otherPool(pp.prefer)} {
		if pool == cluster.PoolTraining && !pp.allowTraining {
			continue
		}
		if pool == cluster.PoolOnLoan && !pp.allowOnLoan {
			continue
		}
		st.Cluster.EachPoolServer(pool, func(s *cluster.Server) bool {
			if freed >= want {
				return false
			}
			if s.TotalFlexible() == 0 {
				return true
			}
			for _, id := range s.Jobs() {
				if freed >= want {
					return false
				}
				if s.FlexibleGPUs(id) == 0 {
					continue
				}
				victim := st.Running[id]
				if victim == nil {
					continue
				}
				removed := st.RemoveFlexibleOnServer(victim, s.ID)
				freed += removed * victim.GPUsPerWorker
			}
			return true
		})
		if freed >= want {
			return freed
		}
	}
	return freed
}

// packedState builds a cluster of training servers and on-loan servers and
// lets Lyra schedule a random mix of jobs, elastic with probability elastic
// and fungible with probability 1/2, arriving in rounds, so phase 2 packs
// the spare GPUs of both pools with flexible workers, several jobs to a
// server, and later rounds' make-room scale-ins mix them up. The same seed
// builds the same state.
func packedState(seed int64, training, onLoan, jobs, rounds int, elastic float64) *sim.State {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(cluster.Config{TrainingServers: training, InferenceServers: onLoan})
	for _, s := range c.PoolServers(cluster.PoolInference) {
		if err := c.Move(s.ID, cluster.PoolOnLoan); err != nil {
			panic(err)
		}
	}
	st := sim.NewState(c, job.Linear, 63)
	l := NewLyra()
	for id := 1; id <= jobs; id++ {
		base := 1 + rng.Intn(2)
		j := job.New(id, 0, job.ResNet, 1<<rng.Intn(3), base, base+rng.Intn(7), 1000+rng.Float64()*1e5)
		j.Elastic = rng.Float64() < elastic
		j.Fungible = rng.Intn(2) == 0
		st.Enqueue(j, l.Less)
		if id%(jobs/rounds) == 0 || id == jobs {
			l.Schedule(st)
		}
	}
	return st
}

// TestReclaimFlexibleMatchesFullPoolScan runs make-room's scale-in through
// the flexible-server index and through the full-pool reference, on twin
// packed states, for waiting gangs of random width and pool policy: the two
// must scale in the same workers, in the same order (the scale-down event
// streams are byte-identical), and report the same GPUs freed.
func TestReclaimFlexibleMatchesFullPoolScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		gang := job.New(10_000, 0, job.Generic, 1<<rng.Intn(3), 1+rng.Intn(6), 1, 100)
		gang.Elastic = rng.Intn(3) == 0
		gang.Fungible = rng.Intn(2) == 0
		run := func(reclaim func(*sim.State, *job.Job, poolPolicy) int) (int, string, *sim.State) {
			st := packedState(seed, 16, 16, 30, 5, 0.75)
			var events bytes.Buffer
			st.Obs = obs.NewRecorder(obs.NewJSONLWriter(&events))
			freed := reclaim(st, gang, defaultPoolPolicy(st.Cluster, gang))
			return freed, events.String(), st
		}
		gotFreed, gotEvents, got := run(reclaimFlexible)
		wantFreed, wantEvents, want := run(reclaimFlexibleRef)
		if wantFreed == 0 {
			t.Fatalf("seed %d: the reference freed nothing; the state is not packed", seed)
		}
		if gotFreed != wantFreed || gotEvents != wantEvents {
			t.Fatalf("seed %d, gang of %d GPUs: freed %d, want %d\nevents:\n%s\nwant:\n%s",
				seed, gang.BaseGPUs(), gotFreed, wantFreed, gotEvents, wantEvents)
		}
		for _, j := range want.RunningOrdered() {
			if !slices.Equal(got.Running[j.ID].Workers, j.Workers) {
				t.Fatalf("seed %d: job %d workers %v, want %v", seed, j.ID, got.Running[j.ID].Workers, j.Workers)
			}
		}
		if err := got.Cluster.AuditIndexes(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaleOutOptsExcludesOnLoanBaseServers pins the §5.3 separation a
// scale-out is placed under: every on-loan server hosting one of the job's
// base workers is excluded, and no training server or flexible-only server
// is.
func TestScaleOutOptsExcludesOnLoanBaseServers(t *testing.T) {
	st := harness(t, 2, 3) // servers 0-1 training, 2-4 on loan
	j := job.New(1, 0, job.Generic, 1, 3, 6, 100)
	j.Elastic = true
	j.Workers = []job.Worker{
		{Server: 0}, {Server: 2}, {Server: 3, Flexible: true}, {Server: 4},
	}
	got := scaleOutOpts(st, j, false).Exclude
	slices.Sort(got)
	if want := []int{2, 4}; !slices.Equal(got, want) {
		t.Errorf("Exclude = %v, want the on-loan base servers %v", got, want)
	}
	if ex := scaleOutOpts(st, j, true).Exclude; ex != nil {
		t.Errorf("naive placement excludes %v, want nothing", ex)
	}
}

// BenchmarkMakeRoom measures one make-room round trip at the paper's scale:
// 443 training + 520 inference servers, all of them loaned, packed by 1,000
// jobs of which a quarter are elastic, so flexible workers sit on ~50
// training and ~360 on-loan servers among inelastic work. One op is the
// scale-in for a waiting 8-GPU base gang pinned to the training pool, then
// phase 2's apply re-growing every elastic job to the targets it held before.
func BenchmarkMakeRoom(b *testing.B) {
	st := packedState(1, 443, 520, 1000, 20, 0.25)
	cands := st.ElasticOrdered()
	targets := make([]alloc.Extra, len(cands))
	for i, j := range cands {
		targets[i] = alloc.Extra{ID: j.ID, Extra: j.FlexibleWorkers()}
	}
	gang := job.New(1_000_000, 0, job.Generic, 8, 1, 1, 100)
	pp := defaultPoolPolicy(st.Cluster, gang)
	scratch := map[int]int{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reclaimFlexible(st, gang, pp) < gang.BaseGPUs() {
			b.Fatal("make-room freed less than the gang needs")
		}
		applyExtraTargets(st, cands, targets, false, "phase2", scratch)
	}
}
