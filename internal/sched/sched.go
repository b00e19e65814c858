// Package sched implements the job schedulers compared in the evaluation:
// Lyra's two-phase scheduler (§5), the FIFO Baseline, Gandiva-style
// opportunistic scaling, AFS-style greedy marginal-gain allocation, a
// Pollux-style goodput-optimizing scheduler, and the Opportunistic
// capacity-sharing scheme (§7.1). All of them drive the simulator through
// sim.State and share the phase-1 machinery below: pick pending jobs under
// a queue order, count capacity, and gang-place base demands in
// best-fit-decreasing order.
package sched

import (
	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/place"
	"lyra/internal/sim"
)

// startBase selects pending jobs in queue order whose base demand fits the
// counted capacity of the pools rule lets them use (take), then gang-places
// them under rule in best-fit-decreasing order (§5.3) and starts them. The
// counted capacity includes GPUs held by flexible workers — §5.2: available
// resources are "idle GPUs and GPUs being used by flexible workers for
// resizing" — and a gang that does not fit the free GPUs takes them from
// flexible workers (makeRoom): base demands always take priority over
// flexible ones.
//
// When heteroPass is false only non-heterogeneous jobs are considered; the
// caller runs a second pass for heterogeneous jobs after everything else
// (§6: they get the lowest priority). The jobs started are appended to
// sc.started, which the first, non-heterogeneous pass empties: after both
// passes it holds the epoch's starts.
func (sc *scratch) startBase(st *sim.State, rule place.Rule, heteroPass bool) {
	if !heteroPass {
		sc.started = sc.started[:0]
	}
	var avail [cluster.PoolOnLoan + 1]int
	avail[cluster.PoolTraining], avail[cluster.PoolOnLoan] = st.FreeSchedulableGPUs()
	avail[cluster.PoolTraining] += st.Cluster.FlexibleGPUs(cluster.PoolTraining)
	avail[cluster.PoolOnLoan] += st.Cluster.FlexibleGPUs(cluster.PoolOnLoan)
	chosen := sc.chosen[:0]
	for _, j := range st.Pending {
		if j.Hetero != heteroPass {
			continue
		}
		if avail[cluster.PoolTraining] <= 0 && avail[cluster.PoolOnLoan] <= 0 {
			break
		}
		if take(&avail, j, rule(st.Cluster, j)) {
			chosen = append(chosen, j)
		}
	}
	sc.chosen = chosen
	place.SortByDemand(chosen)
	for _, j := range chosen {
		opt := rule(st.Cluster, j)
		if !sc.gang(st, j, opt) && !sc.makeRoom(st, j, opt) {
			continue // fragmentation or type constraints
		}
		st.Start(j, sc.placed)
		sc.started = append(sc.started, j)
	}
	st.CompactPending()
}

// take counts j's base demand against avail, the counted GPUs per pool, in
// the pool order opt places its gang in: a gang that may mix GPU types
// spills across its pools, any other takes the first its whole demand fits.
func take(avail *[cluster.PoolOnLoan + 1]int, j *job.Job, opt place.Options) bool {
	d, order := j.BaseGPUs(), place.PoolOrder(opt)
	if !opt.SingleGPUType {
		left := d
		for _, p := range order {
			left -= avail[p]
		}
		if left > 0 {
			return false
		}
		for _, p := range order {
			t := min(d, avail[p])
			avail[p], d = avail[p]-t, d-t
		}
		return true
	}
	for _, p := range order {
		if d <= avail[p] {
			avail[p] -= d
			return true
		}
	}
	return false
}

// makeRoom is gang with the flexible GPUs of j's pools counted as free
// (place.Options.Evict). Only a complete plan scales workers in, only on
// its servers and only as many as the gang needs there: lowest job ID
// first, whole workers at a time.
func (sc *scratch) makeRoom(st *sim.State, j *job.Job, opt place.Options) bool {
	sp, saved := st.Prof.Start("make-room"), st.Cause
	st.Cause = "make-room" // tells the scale-ins from phase-2 resizes
	defer func() { st.Cause = saved; sp.End() }()
	opt.Evict = func(s *cluster.Server, gpus int) {
		var buf [16]int
		for _, id := range s.AppendJobs(buf[:0]) {
			if v := st.Running[id]; s.Free() < gpus && s.FlexibleGPUs(id) > 0 {
				g := place.WorkerGPUs(v, s.GPU)
				st.RemoveFlexibleOnServer(v, s.ID, (gpus-s.Free()+g-1)/g)
			}
		}
	}
	return sc.gang(st, j, opt)
}

// lessByArrival is the FIFO queue order.
func lessByArrival(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// lessByEstimate is the SJF queue order over estimated running times
// (§5.2), falling back to arrival order on ties.
func lessByEstimate(a, b *job.Job) bool {
	if a.EstimatedRuntime != b.EstimatedRuntime {
		return a.EstimatedRuntime < b.EstimatedRuntime
	}
	return lessByArrival(a, b)
}

// lessByAttained is the least-attained-service order used by the
// information-agnostic Lyra variant: jobs that have consumed the least
// GPU-time so far go first, with arrival order breaking ties.
func lessByAttained(a, b *job.Job) bool {
	aa, ab := a.Work-a.Remaining, b.Work-b.Remaining
	if aa != ab {
		return aa < ab
	}
	return lessByArrival(a, b)
}

// scratch is one scheduler instance's placement buffers, reused every
// epoch. Each buffer but started is dead once the call that filled it
// returns (Start and AddWorkers copy the workers they are given), and it
// lives on the instance, never in a package variable: the runner executes
// simulations concurrently, one scheduler instance per run and per shard.
type scratch struct {
	chosen  []*job.Job   // startBase's selection
	started []*job.Job   // the jobs both startBase passes of this epoch started
	exclude []int        // place.ScaleOut's on-loan base servers
	placed  []job.Worker // the workers the last gang or scaleOut placed
}

// gang places j's base gang under opt into sc.placed, reporting success.
func (sc *scratch) gang(st *sim.State, j *job.Job, opt place.Options) (ok bool) {
	sc.placed, ok = place.AppendGang(sc.placed[:0], st.Cluster, j, j.MinWorkers, opt)
	return ok
}

// scaleOut adds up to n flexible workers to running job j under
// place.ScaleOut, reporting whether any fit.
func (sc *scratch) scaleOut(st *sim.State, j *job.Job, n int, naive bool) bool {
	opt := place.ScaleOut(st.Cluster, j, naive, sc.exclude)
	sc.exclude = opt.Exclude
	sc.placed = place.AppendUpTo(sc.placed[:0], st.Cluster, j, n, opt)
	if len(sc.placed) == 0 {
		return false
	}
	st.AddWorkers(j, sc.placed)
	return true
}
