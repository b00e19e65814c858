package sim

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/job"
	"lyra/internal/place"
)

// rescaleSched starts jobs FIFO at their base demand and rescales every
// running elastic job at every epoch: one holding flexible workers gives
// one back, one holding none grows to its maximum. Each rescale moves the
// job's finish event. buf is its reused placement scratch.
type rescaleSched struct {
	fifoSched
	buf []job.Worker
}

func (s *rescaleSched) Schedule(st *State) {
	for _, j := range st.RunningOrdered() {
		if j.FlexibleWorkers() > 0 {
			st.RemoveFlexibleWorkers(j, 1)
		} else if want := j.MaxWorkers - j.NumWorkers(); want > 0 {
			s.buf = place.AppendUpTo(s.buf[:0], st.Cluster, j, want, place.Options{PreferPool: cluster.PoolTraining, Flexible: true})
			if len(s.buf) > 0 {
				st.AddWorkers(j, s.buf)
			}
		}
	}
	s.fifoSched.Schedule(st)
}

// elasticDay is the engine benchmarks' 300-job day with every job elastic,
// up to three workers above its base demand.
func elasticDay() []*job.Job {
	jobs := make([]*job.Job, 0, 300)
	for k := 0; k < 300; k++ {
		j := job.New(k, int64(k*251%86400), job.Generic, 1+k%4, 1, 2+k%3, float64(300+97*k%3600))
		j.Elastic = true
		jobs = append(jobs, j)
	}
	return jobs
}

// BenchmarkEngineElastic replays elasticDay under rescaleSched, so, unlike
// the other engine benchmarks' inelastic FIFO day, most events reschedule
// a finish event already in the timeline.
func BenchmarkEngineElastic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(smallCluster(8, 0), elasticDay(), 172800, &rescaleSched{}, nil, Config{})
		b.StartTimer()
		e.Run()
	}
}

// TestTimelineKeepsItsCapacity: the timeline is allocated once, at the size
// Run loads it with, and an audited run that rescales every running job at
// every epoch never outgrows it — with and without crashes and restart
// backoff holds, whose release events share the jobs' slots.
func TestTimelineKeepsItsCapacity(t *testing.T) {
	plan := &fault.Plan{Seed: 5, ServerMTBF: 20000, ServerMTTR: 900}
	for name, cfg := range map[string]Config{
		"elastic": {Audit: true},
		"faulted": {Audit: true, Faults: plan, BackoffBase: 30, BackoffCap: 600},
	} {
		jobs := elasticDay()
		e := New(smallCluster(8, 0), jobs, 172800, &rescaleSched{}, nil, cfg)
		res := e.Run()
		if res.Completed != len(jobs) || res.ScalingOps < 10*len(jobs) {
			t.Fatalf("%s: %d of %d jobs completed, %d scaling ops; want all, and 10 per job", name, res.Completed, len(jobs), res.ScalingOps)
		}
		if cfg.Faults != nil && res.Crashes == 0 {
			t.Fatalf("%s: no crash was applied", name)
		}
		want := len(jobs) + 3 + len(e.faultSched) + len(e.domainSched)
		if got := cap(e.events.ev); got != want {
			t.Errorf("%s: timeline capacity %d after the run, want the %d it was loaded with", name, got, want)
		}
	}
}
