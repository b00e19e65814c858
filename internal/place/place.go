// Package place implements Lyra's worker placement (§5.3): best-fit
// bin packing over 8-GPU servers, with the paper's pool preferences —
// inelastic jobs prefer dedicated training servers, elastic jobs prefer
// on-loan inference servers (maximizing the chance that reclaiming can be
// satisfied by scaling in), and an elastic job's base and flexible workers
// go to disjoint server groups so the flexible group can be released
// without preemption.
package place

import (
	"cmp"
	"slices"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// Options control one placement attempt.
type Options struct {
	// PreferPool is tried first (PoolTraining or PoolOnLoan).
	PreferPool cluster.Pool
	// AllowOther permits falling back to the other schedulable pool.
	AllowOther bool
	// SingleGPUType constrains all chosen servers to one GPU type; it is
	// required for every non-heterogeneous job (§2.1: only heterogeneous
	// jobs may mix GPU types at runtime).
	SingleGPUType bool
	// FixedGPU pins the GPU type (used when a job already has workers);
	// the zero value leaves the type to be locked by the first placed
	// worker when SingleGPUType is set.
	FixedGPU cluster.GPUPin
	// Exclude lists the IDs of servers that must not be used — the
	// base/flexible separation of §5.3. It is a handful of IDs, scanned.
	Exclude []int
	// Flexible marks the placed workers as elastic surplus.
	Flexible bool
	// Evict, when set, lets a gang AppendGang cannot place on free GPUs
	// count the flexible GPUs on its pools as free (§5.2), taking the plan
	// that evicts the fewest (planEvicting). Only a complete plan evicts:
	// Evict(s, gpus) is called for each planned server short of free GPUs,
	// and must scale flexible workers in on s until gpus GPUs are free.
	Evict func(s *cluster.Server, gpus int)
}

// PreferOnLoan returns the preference Lyra uses for elastic jobs.
func PreferOnLoan(flexible bool) Options {
	return Options{PreferPool: cluster.PoolOnLoan, AllowOther: true, SingleGPUType: true, Flexible: flexible}
}

// PreferTraining returns the preference Lyra uses for inelastic jobs.
func PreferTraining(allowOther bool) Options {
	return Options{PreferPool: cluster.PoolTraining, AllowOther: allowOther, SingleGPUType: true}
}

// Gang places exactly n workers of j, all-or-nothing (gang scheduling of
// the base demand, §6). On success the GPUs are allocated on the cluster
// and the placed workers are returned; on failure nothing is allocated.
//
// For a type-constrained job it first tries to fit the gang entirely on the
// preferred pool's GPU type, then (if AllowOther) entirely on the other
// pool's type.
func Gang(c *cluster.Cluster, j *job.Job, n int, opt Options) ([]job.Worker, bool) {
	return AppendGang(nil, c, j, n, opt)
}

// AppendGang is Gang appending the placed workers to dst, which a caller
// placing every epoch reuses; on failure it returns dst unchanged.
func AppendGang(dst []job.Worker, c *cluster.Cluster, j *job.Job, n int, opt Options) ([]job.Worker, bool) {
	if n <= 0 {
		return dst, true
	}
	if opt.SingleGPUType && !opt.FixedGPU.Pinned {
		// Try each candidate type in preference order.
		for _, pool := range poolOrder(opt) {
			if gpu, ok := poolGPU(c, pool); ok {
				o := opt
				o.FixedGPU, o.PreferPool, o.AllowOther = cluster.PinGPU(gpu), pool, false
				if ws, ok := AppendGang(dst, c, j, n, o); ok {
					return ws, true
				}
			}
		}
		return dst, false
	}
	ws := plan(dst, c, j, n, opt)
	if opt.Evict != nil && len(ws)-len(dst) < n {
		ws = planEvicting(ws, len(dst), c, j, n, opt)
	}
	if len(ws)-len(dst) < n {
		return dst, false
	}
	commit(c, j, ws[len(dst):], opt.Evict)
	return ws, true
}

// AppendUpTo places up to n workers of j, appending however many fit
// (possibly zero) to dst. Used for elastic scale-out, where partial
// fulfilment is fine (§5.2: the flexible demand "can be unfulfilled without
// serious impact").
func AppendUpTo(dst []job.Worker, c *cluster.Cluster, j *job.Job, n int, opt Options) []job.Worker {
	ws := plan(dst, c, j, n, opt)
	commit(c, j, ws[len(dst):], nil)
	return ws
}

// plan appends to dst the workers best fit places putting up to n workers
// of j one at a time under opt, and changes nothing on the cluster. Best
// fit fills each server it picks before moving on (its free count only
// falls, and a server fitting at a lower count would have been picked
// first), so the sequence is one cluster.EachFit walk per pool in
// poolOrder, taking Free()/need workers from each server it visits. An
// unpinned single-type job is pinned to its first server's GPU type.
func plan(dst []job.Worker, c *cluster.Cluster, j *job.Job, n int, opt Options) []job.Worker {
	need := func(g cluster.GPUType) int { return WorkerGPUs(j, g) }
	pin := opt.FixedGPU
	for _, pool := range poolOrder(opt) {
		if n <= 0 {
			break
		}
		c.EachFit(pool, need, pin, opt.Exclude, func(s *cluster.Server) bool {
			if pin.Pinned && s.GPU != pin.GPU {
				return true
			}
			if opt.SingleGPUType {
				pin = cluster.PinGPU(s.GPU)
			}
			w := job.Worker{Server: s.ID, GPU: s.GPU, GPUs: WorkerGPUs(j, s.GPU), Flexible: opt.Flexible}
			for free := s.Free(); n > 0 && free >= w.GPUs; free -= w.GPUs {
				dst = append(dst, w)
				n--
			}
			return n > 0
		})
	}
	return dst
}

// planEvicting extends plan's workers dst[start:] of a gang they do not
// complete, with the flexible GPUs on opt's pools counted as free, and
// leaves them as they are if no plan completes it. A worker needing g GPUs
// on a server with f free and x flexible takes one of the server's f/g free
// slots at no cost, or one of the (f+x)/g - f/g slots eviction opens: the
// first evicts g - f%g GPUs and each later one g. Costs only rise on a
// server, so taking every free slot, then the cheapest eviction slots,
// evicts the fewest flexible GPUs (counted in GPUs, not whole victim
// workers). Equal-cost slots go in pool order, then by server ID.
func planEvicting(dst []job.Worker, start int, c *cluster.Cluster, j *job.Job, n int, opt Options) []job.Worker {
	each := func(fn func(s *cluster.Server, g int) bool) {
		for _, pool := range poolOrder(opt) {
			c.EachFlexibleServer(pool, func(s *cluster.Server) bool {
				return opt.FixedGPU.Pinned && s.GPU != opt.FixedGPU.GPU || slices.Contains(opt.Exclude, s.ID) || fn(s, WorkerGPUs(j, s.GPU))
			})
		}
	}
	open, costs := 0, uint64(0) // eviction slots, and a bit per cost they take
	each(func(s *cluster.Server, g int) bool {
		f := s.Free()
		if k := (f+s.TotalFlexible())/g - f/g; k > 0 {
			open += k
			costs |= 1<<min(g-f%g, 63) | 1<<min(g, 63)
		}
		return true
	})
	if len(dst)-start+open < n {
		return dst
	}
	for cost := 1; cost <= c.GPUsPerServer() && len(dst)-start < n; cost++ {
		if costs&(1<<min(cost, 63)) == 0 {
			continue
		}
		each(func(s *cluster.Server, g int) bool {
			f := s.Free()
			k, first := (f+s.TotalFlexible())/g-f/g, g-f%g
			switch {
			case cost == g && first < g:
				k-- // the first slot went at its own, lower cost
			case cost != first:
				k = 0
			case cost < g:
				k = min(k, 1)
			}
			w := job.Worker{Server: s.ID, GPU: s.GPU, GPUs: g, Flexible: opt.Flexible}
			for ; k > 0 && len(dst)-start < n; k-- {
				dst = append(dst, w)
			}
			return len(dst)-start < n
		})
	}
	return dst
}

// commit allocates plan's workers ws of j; an allocation that fails is a
// bookkeeping bug and panics. A worker short of free GPUs is planEvicting's:
// evict first frees on its server what the rest of ws puts there.
func commit(c *cluster.Cluster, j *job.Job, ws []job.Worker, evict func(*cluster.Server, int)) {
	for i, w := range ws {
		s := c.Server(w.Server)
		if s.Free() < w.GPUs {
			gpus := 0
			for _, v := range ws[i:] {
				if v.Server == w.Server {
					gpus += v.GPUs
				}
			}
			evict(s, gpus)
		}
		if err := s.Allocate(j.ID, w.GPUs, w.Flexible); err != nil {
			panic("place: commit failed: " + err.Error())
		}
	}
}

// WorkerGPUs returns how many GPUs one worker of j occupies on GPU type g.
// Jobs are sized for training-GPU memory; on a smaller-memory GPU the local
// batch is split across proportionally more GPUs so the global batch — and
// the model quality — is unchanged (§2.1). A T4 worker therefore occupies
// twice the GPUs of a V100 worker and delivers 2 x 0.35 = 0.7x the
// throughput, matching the paper's testbed observation that ~3 loaned T4
// servers equal one training server.
func WorkerGPUs(j *job.Job, g cluster.GPUType) int {
	ref := cluster.V100.MemGB()
	mem := g.MemGB()
	if mem <= 0 || mem >= ref {
		return j.GPUsPerWorker
	}
	return j.GPUsPerWorker * ((ref + mem - 1) / mem)
}

func poolOrder(opt Options) []cluster.Pool {
	if !opt.AllowOther {
		return []cluster.Pool{opt.PreferPool}
	}
	if opt.PreferPool == cluster.PoolOnLoan {
		return []cluster.Pool{cluster.PoolOnLoan, cluster.PoolTraining}
	}
	return []cluster.Pool{cluster.PoolTraining, cluster.PoolOnLoan}
}

// poolGPU returns the GPU type of pool p's servers, false if the pool is
// empty. Pools are homogeneous by construction (loaning moves whole
// inference servers); the lowest-ID member is the representative, matching
// the pre-index behavior of reading the head of the sorted pool slice.
func poolGPU(c *cluster.Cluster, p cluster.Pool) (g cluster.GPUType, ok bool) {
	c.EachPoolServer(p, func(s *cluster.Server) bool {
		g, ok = s.GPU, true
		return false
	})
	return g, ok
}

// FitsOnLoan reports whether one worker of j can be hosted by one of c's
// inference-tier servers at all: with the memory-driven GPU doubling, a
// worker needing more GPUs than a whole T4 server has never fits one.
func FitsOnLoan(c *cluster.Cluster, j *job.Job) bool {
	return WorkerGPUs(j, c.InferenceGPU()) <= c.GPUsPerServer()
}

// SortByDemand orders jobs by decreasing per-worker GPU demand — the
// best-fit-decreasing order of §5.3 — breaking ties by ID.
func SortByDemand(jobs []*job.Job) {
	slices.SortFunc(jobs, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(b.GPUsPerWorker, a.GPUsPerWorker), cmp.Compare(a.ID, b.ID))
	})
}
