package sched

import (
	"math/rand"
	"slices"
	"testing"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/place"
	"lyra/internal/sim"
)

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

// makeRoomWatch is an event sink checking make-room as it happens: the
// servers a run of make-room scale-ins frees must all host the gang whose
// start is the very next event. It keeps each job's workers as of its last
// event, so a scale-down tells which servers it freed.
type makeRoomWatch struct {
	t      *testing.T
	st     *sim.State
	last   map[int][]job.Worker
	freed  []int // servers the current run of make-room scale-ins freed
	served int   // gangs started on servers make-room freed for them
}

func (w *makeRoomWatch) Record(ev obs.Event) {
	if ev.Job < 0 {
		w.check(ev)
		return
	}
	now := w.st.Running[ev.Job]
	if ev.Kind == obs.KindJobScaleDown && ev.Cause == "make-room" {
		for _, was := range w.last[ev.Job] {
			if was.Flexible && countOn(now.Workers, was.Server, true) < countOn(w.last[ev.Job], was.Server, true) {
				w.freed = append(w.freed, was.Server)
			}
		}
	} else {
		w.check(ev)
	}
	w.last[ev.Job] = nil
	if now != nil {
		w.last[ev.Job] = slices.Clone(now.Workers)
	}
}

// check fails the test unless ev starts a gang on every server the make-room
// scale-ins before it freed, if there were any.
func (w *makeRoomWatch) check(ev obs.Event) {
	if len(w.freed) == 0 {
		return
	}
	if ev.Kind != obs.KindJobStart {
		w.t.Errorf("make-room freed servers %v, then came %s of job %d, not a gang start", w.freed, ev.Kind, ev.Job)
	} else {
		for _, sid := range w.freed {
			if countOn(w.st.Running[ev.Job].Workers, sid, false) == 0 {
				w.t.Errorf("make-room freed server %d, and job %d started without it", sid, ev.Job)
			}
		}
		w.served++
	}
	w.freed = w.freed[:0]
}

// countOn counts the workers in ws on server sid, only flexible ones if
// flexible is set.
func countOn(ws []job.Worker, sid int, flexible bool) int {
	n := 0
	for _, w := range ws {
		if w.Server == sid && (w.Flexible || !flexible) {
			n++
		}
	}
	return n
}

// TestMakeRoomFreesOnlyForItsGang queues waiting gangs of random width and
// pool policy on packed states and lets Lyra schedule them: every make-room
// call either scales nothing in, or the gang it serves starts right after
// its scale-ins, on every server they freed. A scale-in for a gang that then
// fails, or that lands elsewhere, is churn that serves no one.
func TestMakeRoomFreesOnlyForItsGang(t *testing.T) {
	served := 0
	for seed := int64(1); seed <= 40; seed++ {
		st := packedState(seed, 16, 16, 30, 5, 0.75)
		w := &makeRoomWatch{t: t, st: st, last: map[int][]job.Worker{}}
		for _, j := range st.RunningOrdered() {
			w.last[j.ID] = slices.Clone(j.Workers)
		}
		st.Obs = obs.NewRecorder(w)
		rng := rand.New(rand.NewSource(-seed))
		l := NewLyra()
		for id := 10_000; id < 10_006; id++ {
			base := 1 + rng.Intn(6)
			gang := job.New(id, 0, job.Generic, 1<<rng.Intn(3), base, base+rng.Intn(3), 100)
			gang.Elastic = rng.Intn(3) == 0
			gang.Fungible = rng.Intn(2) == 0
			st.Enqueue(gang, l.Less)
		}
		l.Schedule(st)
		w.check(obs.Ev(st.Now, obs.KindSchedPhase2))
		if err := st.AuditIncremental(); err != nil {
			t.Fatal(err)
		}
		served += w.served
	}
	if served < 20 {
		t.Fatalf("make-room placed %d gangs over 40 seeds, want at least 20: the states are not packed", served)
	}
}

// BenchmarkMakeRoom measures one make-room round trip at the paper's scale:
// 443 training + 520 inference servers, all of them loaned, packed by 1,000
// jobs of which a quarter are elastic, so flexible workers sit on ~50
// training and ~360 on-loan servers among inelastic work. One op is the
// make-room placement of a waiting base gang pinned to the training pool,
// of whole-server workers one more than the pool's idle servers, so that it
// evicts on one server; the release of its GPUs; then phase 2's apply
// re-growing every elastic job to the targets it held before.
func BenchmarkMakeRoom(b *testing.B) {
	st := packedState(1, 443, 520, 1000, 20, 0.25)
	cands := st.ElasticOrdered()
	targets := make([]alloc.Extra, len(cands))
	for i, j := range cands {
		targets[i] = alloc.Extra{ID: j.ID, Extra: j.FlexibleWorkers()}
	}
	idle := 0
	st.Cluster.EachPoolServer(cluster.PoolTraining, func(s *cluster.Server) bool {
		if s.Used() == 0 {
			idle++
		}
		return true
	})
	gang := job.New(1_000_000, 0, job.Generic, 8, idle+1, idle+1, 100)
	opt := place.Default(st.Cluster, gang)
	var sc scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.gang(st, gang, opt) || !sc.makeRoom(st, gang, opt) {
			b.Fatal("the gang fits without make-room, or not with it")
		}
		for _, w := range sc.placed {
			st.Cluster.Server(w.Server).ReleaseJob(gang.ID)
		}
		sc.applyExtraTargets(st, cands, targets, false, "phase2")
	}
}
