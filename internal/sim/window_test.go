package sim

import (
	"slices"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// placeWorkers allocates one worker of j on each listed server and returns
// the workers, as placement does before Start or AddWorkers.
func placeWorkers(t *testing.T, st *State, j *job.Job, flexible bool, srvs ...int) []job.Worker {
	t.Helper()
	var ws []job.Worker
	for _, srv := range srvs {
		s := st.Cluster.Server(srv)
		if err := s.Allocate(j.ID, j.GPUsPerWorker, flexible); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, job.Worker{Server: srv, GPU: s.GPU, GPUs: j.GPUsPerWorker, Flexible: flexible})
	}
	return ws
}

// auditAll runs the state's and the cluster's audits.
func auditAll(t *testing.T, st *State, step string) {
	t.Helper()
	for _, err := range []error{st.AuditIncremental(), st.Cluster.CheckInvariants(), st.Cluster.AuditIndexes()} {
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
}

// Jobs started back to back take neighbouring windows of one worker chunk.
// One of them scales out past MaxWorkers, so its append runs past its
// window, then is preempted, restarted and finished; after each step every
// other job's workers are what they were.
func TestWorkerWindowsStayDisjoint(t *testing.T) {
	st := NewState(smallCluster(4, 0), job.Linear, 0)
	less := fifoSched{}.Less
	var jobs []*job.Job
	for id := 1; id <= 5; id++ {
		j := job.New(id, 0, job.Generic, 1, 1, 2, 1000)
		j.Elastic = true
		st.Enqueue(j, less)
		st.Start(j, placeWorkers(t, st, j, false, id%4))
		jobs = append(jobs, j)
	}
	st.CompactPending()
	for _, j := range jobs {
		if cap(j.Workers) != j.MaxWorkers {
			t.Fatalf("job %d: worker list of capacity %d, want a window of MaxWorkers %d", j.ID, cap(j.Workers), j.MaxWorkers)
		}
	}
	// A scale-out up to MaxWorkers fills the window in place.
	first := &jobs[1].Workers[0]
	st.AddWorkers(jobs[1], placeWorkers(t, st, jobs[1], true, 0))
	if &jobs[1].Workers[0] != first {
		t.Error("a scale-out up to MaxWorkers reallocated the worker list")
	}
	auditAll(t, st, "scale-out to MaxWorkers")

	j := jobs[2]
	others := slices.Delete(slices.Clone(jobs), 2, 3)
	want := make([][]job.Worker, len(others))
	for i, o := range others {
		want[i] = slices.Clone(o.Workers)
	}
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"scale-out past MaxWorkers", func() { st.AddWorkers(j, placeWorkers(t, st, j, true, 1, 2, 3)) }},
		{"preempt", func() {
			st.Preempt(j, less)
			if j.Workers == nil {
				t.Error("Preempt dropped the worker array")
			}
		}},
		{"restart", func() {
			st.Start(j, placeWorkers(t, st, j, false, 3))
			st.CompactPending()
		}},
		{"finish", func() {
			st.Finish(j)
			if j.Workers != nil {
				t.Error("Finish kept the worker array")
			}
		}},
	} {
		step.do()
		for i, o := range others {
			if !slices.Equal(o.Workers, want[i]) {
				t.Fatalf("%s of job %d: job %d's workers are %+v, want %+v", step.name, j.ID, o.ID, o.Workers, want[i])
			}
		}
		auditAll(t, st, step.name)
	}
}

// heldOn lists server s's holdings as (job, GPUs, flexible GPUs).
func heldOn(s *cluster.Server) [][3]int {
	var out [][3]int
	for _, id := range s.Jobs() {
		out = append(out, [3]int{id, s.JobGPUs(id), s.FlexibleGPUs(id)})
	}
	return out
}

// Three servers' first holdings lists are neighbouring windows of the
// cluster's chunk. The middle server fills its window, and its jobs leave
// and come back at their ID positions; after each step its neighbours'
// holdings are what they were.
func TestHoldingsWindowsStayDisjoint(t *testing.T) {
	c := smallCluster(3, 0)
	st := NewState(c, job.Linear, 0)
	less := fifoSched{}.Less
	start := func(j *job.Job, srv int) {
		st.Enqueue(j, less)
		st.Start(j, placeWorkers(t, st, j, false, srv))
		st.CompactPending()
	}
	byID := map[int]*job.Job{}
	for id := 1; id <= 3; id++ {
		byID[id] = job.New(id, 0, job.Generic, 1, 1, 1, 1000)
		start(byID[id], id-1)
	}
	for id := 10; id < 17; id++ {
		byID[id] = job.New(id, 0, job.Generic, 1, 1, 1, 1000)
		start(byID[id], 1)
	}
	mid := c.Server(1)
	if mid.Free() != 0 || len(heldOn(mid)) != mid.NumGPUs {
		t.Fatalf("server 1 holds %v, want %d jobs filling it", heldOn(mid), mid.NumGPUs)
	}
	want := [][][3]int{heldOn(c.Server(0)), heldOn(c.Server(2))}
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"jobs 10 and 13 leave", func() { st.Preempt(byID[10], less); st.Preempt(byID[13], less) }},
		{"job 2 finishes", func() { st.Finish(byID[2]) }},
		{"job 13 comes back", func() {
			st.Start(byID[13], placeWorkers(t, st, byID[13], false, 1))
			st.CompactPending()
		}},
		{"job 10 comes back", func() {
			st.Start(byID[10], placeWorkers(t, st, byID[10], false, 1))
			st.CompactPending()
		}},
		{"job 2's place is taken", func() {
			byID[4] = job.New(4, 0, job.Generic, 1, 1, 1, 1000)
			start(byID[4], 1)
		}},
		{"every job leaves", func() {
			for _, id := range mid.Jobs() {
				st.Finish(byID[id])
			}
		}},
	} {
		step.do()
		for i, srv := range []int{0, 2} {
			if got := heldOn(c.Server(srv)); !slices.Equal(got, want[i]) {
				t.Fatalf("%s: server %d holds %v, want %v", step.name, srv, got, want[i])
			}
		}
		auditAll(t, st, step.name)
	}
	if len(heldOn(mid)) != 0 || mid.Free() != mid.NumGPUs {
		t.Fatalf("server 1 holds %v after every job left", heldOn(mid))
	}
}
