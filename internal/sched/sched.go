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

// poolPolicy says where a job's workers may go and which pool is preferred.
type poolPolicy struct {
	allowTraining bool
	allowOnLoan   bool
	prefer        cluster.Pool
}

// defaultPoolPolicy encodes §5.3: inelastic jobs prefer training servers;
// elastic jobs prefer on-loan servers; fungible jobs may use either pool;
// heterogeneous jobs may mix, base preferring training; everything else is
// pinned to the training pool.
func defaultPoolPolicy(c *cluster.Cluster, j *job.Job) poolPolicy {
	loanable := place.FitsOnLoan(c, j)
	switch {
	case j.Hetero:
		return poolPolicy{allowTraining: true, allowOnLoan: loanable, prefer: cluster.PoolTraining}
	case j.Elastic && loanable:
		return poolPolicy{allowTraining: true, allowOnLoan: true, prefer: cluster.PoolOnLoan}
	case j.Fungible && loanable:
		return poolPolicy{allowTraining: true, allowOnLoan: true, prefer: cluster.PoolTraining}
	default:
		return poolPolicy{allowTraining: true, prefer: cluster.PoolTraining}
	}
}

// opportunisticMaxRuntime bounds which fungible jobs are queued to the
// inference cluster under the Opportunistic scheme: a job longer than the
// typical low-traffic window can never finish there — every traffic rise
// preempts it and (without checkpointing) restarts it from scratch — so in
// practice only short jobs are offloaded opportunistically.
const opportunisticMaxRuntime = 4 * 3600

// opportunisticPoolPolicy encodes the Opportunistic scheme (§7.1): short
// fungible jobs are queued to the inference cluster only; everything else
// stays on the training cluster.
func opportunisticPoolPolicy(c *cluster.Cluster, j *job.Job) poolPolicy {
	if j.Fungible && place.FitsOnLoan(c, j) && j.EstimatedRuntime <= opportunisticMaxRuntime {
		return poolPolicy{allowOnLoan: true, prefer: cluster.PoolOnLoan}
	}
	return poolPolicy{allowTraining: true, prefer: cluster.PoolTraining}
}

func (pp poolPolicy) options(j *job.Job, flexible bool) place.Options {
	return place.Options{
		PreferPool:    pp.prefer,
		AllowOther:    pp.allowTraining && pp.allowOnLoan,
		SingleGPUType: !j.Hetero,
		Flexible:      flexible,
	}
}

// startBase selects pending jobs in queue order whose base demand fits the
// counted capacity, then gang-places them in best-fit-decreasing order
// (§5.3) and starts them. The counted capacity includes GPUs held by
// flexible workers — §5.2: available resources are "idle GPUs and GPUs
// being used by flexible workers for resizing" — and a gang that does not
// fit the free GPUs takes them from flexible workers (makeRoom): base
// demands always take priority over flexible ones.
//
// When heteroPass is false only non-heterogeneous jobs are considered; the
// caller runs a second pass for heterogeneous jobs after everything else
// (§6: they get the lowest priority). The jobs started are appended to
// sc.started, which the first, non-heterogeneous pass empties: after both
// passes it holds the epoch's starts.
func (sc *scratch) startBase(st *sim.State, policy func(*cluster.Cluster, *job.Job) poolPolicy, heteroPass bool) {
	if !heteroPass {
		sc.started = sc.started[:0]
	}
	availT, availL := st.FreeSchedulableGPUs()
	availT += st.Cluster.FlexibleGPUs(cluster.PoolTraining)
	availL += st.Cluster.FlexibleGPUs(cluster.PoolOnLoan)
	chosen := sc.chosen[:0]
	for _, j := range st.Pending {
		if j.Hetero != heteroPass {
			continue
		}
		if availT <= 0 && availL <= 0 {
			break
		}
		pp := policy(st.Cluster, j)
		d := j.BaseGPUs()
		switch {
		case j.Hetero && pp.allowTraining && pp.allowOnLoan && d <= availT+availL:
			take := min(d, availT)
			availT, availL = availT-take, availL-(d-take)
		case pp.allowOnLoan && pp.prefer == cluster.PoolOnLoan && d <= availL:
			availL -= d
		case pp.allowTraining && d <= availT:
			availT -= d
		case pp.allowOnLoan && d <= availL:
			availL -= d
		default:
			continue
		}
		chosen = append(chosen, j)
	}
	sc.chosen = chosen
	place.SortByDemand(chosen)
	for _, j := range chosen {
		opt := policy(st.Cluster, j).options(j, false)
		if !sc.gang(st, j, opt) && !sc.makeRoom(st, j, opt) {
			continue // fragmentation or type constraints
		}
		st.Start(j, sc.placed)
		sc.started = append(sc.started, j)
	}
	st.CompactPending()
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

// scaleOutOpts builds the placement options for adding flexible workers to
// a running job: same GPU type as its existing workers (unless
// heterogeneous — then flexible workers go to inference servers whenever
// possible, §6), and, unless naive placement is requested (Table 6), on a
// server group disjoint from the base workers (§5.3). The separation only
// concerns on-loan servers — its purpose is letting the orchestrator
// release the flexible group without preemption during reclaiming, which
// never touches training servers — so base servers in the training pool
// are not excluded.
func (sc *scratch) scaleOutOpts(st *sim.State, j *job.Job, naive bool) place.Options {
	opt := place.Options{Flexible: true, AllowOther: true}
	if !j.Hetero {
		opt.SingleGPUType = true
		if len(j.Workers) > 0 {
			opt.FixedGPU = cluster.PinGPU(j.Workers[0].GPU)
		}
	}
	if naive {
		opt.PreferPool = cluster.PoolTraining
		return opt
	}
	opt.PreferPool = cluster.PoolOnLoan
	ex := sc.exclude[:0]
	for _, w := range j.Workers {
		if !w.Flexible && st.Cluster.Server(w.Server).Pool == cluster.PoolOnLoan {
			ex = append(ex, w.Server) // a repeat is harmless
		}
	}
	sc.exclude, opt.Exclude = ex, ex
	return opt
}

// scratch is one scheduler instance's placement buffers, reused every
// epoch. Each buffer but started is dead once the call that filled it
// returns (Start and AddWorkers copy the workers they are given), and it
// lives on the instance, never in a package variable: the runner executes
// simulations concurrently, one scheduler instance per run and per shard.
type scratch struct {
	chosen  []*job.Job   // startBase's selection
	started []*job.Job   // the jobs both startBase passes of this epoch started
	exclude []int        // scaleOutOpts' on-loan base servers
	placed  []job.Worker // the workers the last gang or scaleOut placed
}

// gang places j's base gang under opt into sc.placed, reporting success.
func (sc *scratch) gang(st *sim.State, j *job.Job, opt place.Options) (ok bool) {
	sc.placed, ok = place.AppendGang(sc.placed[:0], st.Cluster, j, j.MinWorkers, opt)
	return ok
}

// scaleOut adds up to n flexible workers to running job j under
// scaleOutOpts, reporting whether any fit.
func (sc *scratch) scaleOut(st *sim.State, j *job.Job, n int, naive bool) bool {
	sc.placed = place.AppendUpTo(sc.placed[:0], st.Cluster, j, n, sc.scaleOutOpts(st, j, naive))
	if len(sc.placed) == 0 {
		return false
	}
	st.AddWorkers(j, sc.placed)
	return true
}
