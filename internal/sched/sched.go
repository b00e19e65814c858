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
// being used by flexible workers for resizing" — and placement scales
// elastic jobs in on demand to make room for base demands, which always
// take priority over flexible ones.
//
// Selection and placement run in passes. A make-room reclaim frees GPUs
// that the counts taken before it already promised to other chosen jobs,
// and the freed capacity can land fragmented across servers the failed
// gang never saw — so counting once per epoch double-counts that capacity
// and a placement failure after someone else's reclaim silently loses a
// whole epoch for the job. After any pass that both reclaimed and failed,
// the counts are retaken (O(1) reads of the cluster's maintained counters)
// and the survivors get another pass. Flexible stock strictly shrinks on
// every continuing pass, so this terminates.
//
// When heteroPass is false only non-heterogeneous jobs are considered; the
// caller runs a second pass for heterogeneous jobs after everything else
// (§6: they get the lowest priority).
func startBase(st *sim.State, policy func(*cluster.Cluster, *job.Job) poolPolicy, heteroPass bool) []*job.Job {
	var started []*job.Job
	var chosen []*job.Job
	for {
		availT, availL := st.FreeSchedulableGPUs()
		availT += st.Cluster.FlexibleGPUs(cluster.PoolTraining)
		availL += st.Cluster.FlexibleGPUs(cluster.PoolOnLoan)
		chosen = chosen[:0]
		for _, j := range st.Pending {
			// Jobs started by an earlier pass stay in the queue slice
			// until the final compaction; skip them by state.
			if j.Hetero != heteroPass || j.State != job.Pending {
				continue
			}
			if availT <= 0 && availL <= 0 {
				break
			}
			pp := policy(st.Cluster, j)
			d := j.BaseGPUs()
			switch {
			case j.Hetero && pp.allowTraining && pp.allowOnLoan && d <= availT+availL:
				take := d
				if take > availT {
					availL -= take - availT
					take = availT
				}
				availT -= take
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
		place.SortByDemand(chosen)
		freed, failures := 0, 0
		for _, j := range chosen {
			pp := policy(st.Cluster, j)
			ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, pp.options(j, false))
			if !ok {
				// Make room by scaling elastic jobs in, then retry.
				sp := st.Prof.Start("make-room")
				f := reclaimFlexible(st, j, pp)
				sp.End()
				if f > 0 {
					freed += f
					ws, ok = place.Gang(st.Cluster, j, j.MinWorkers, pp.options(j, false))
				}
			}
			if !ok {
				failures++
				continue // fragmentation or type constraints
			}
			st.Start(j, ws)
			started = append(started, j)
		}
		if failures == 0 || freed == 0 {
			break
		}
	}
	st.CompactPending()
	return started
}

// reclaimFlexible scales elastic jobs in until roughly j's base demand
// worth of flexible GPUs has been released in j's eligible pools, returning
// the GPUs freed.
func reclaimFlexible(st *sim.State, j *job.Job, pp poolPolicy) int {
	want := j.BaseGPUs()
	freed := 0
	// Scale-downs here make room for a waiting base demand; tag them so
	// the event stream distinguishes them from phase-2 resizes.
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
		// Scale-ins only release GPUs on the server being visited — they
		// never move servers between pools or touch the servers still
		// ahead — so iterating the live index is safe here, and the
		// flexible-server index visits what a whole-pool walk skipping
		// servers without flexible GPUs would. The server's job list
		// changes as victims leave it, so it is walked from a snapshot.
		st.Cluster.EachFlexibleServer(pool, func(s *cluster.Server) bool {
			if freed >= want {
				return false
			}
			var buf [16]int
			for _, id := range s.AppendJobs(buf[:0]) {
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

func otherPool(p cluster.Pool) cluster.Pool {
	if p == cluster.PoolTraining {
		return cluster.PoolOnLoan
	}
	return cluster.PoolTraining
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
func scaleOutOpts(st *sim.State, j *job.Job, naive bool) place.Options {
	opt := place.Options{Flexible: true, AllowOther: true}
	if !j.Hetero {
		opt.SingleGPUType = true
		if len(j.Workers) > 0 {
			gpu := j.Workers[0].GPU
			opt.FixedGPU = &gpu
		}
	}
	if naive {
		opt.PreferPool = cluster.PoolTraining
		return opt
	}
	opt.PreferPool = cluster.PoolOnLoan
	for _, w := range j.Workers {
		if !w.Flexible && st.Cluster.Server(w.Server).Pool == cluster.PoolOnLoan {
			opt.Exclude = append(opt.Exclude, w.Server) // a repeat is harmless
		}
	}
	return opt
}
