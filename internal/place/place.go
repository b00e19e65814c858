// Package place implements Lyra's worker placement (§5.3): best-fit
// bin packing over 8-GPU servers, with the paper's pool preferences —
// inelastic jobs prefer dedicated training servers, elastic jobs prefer
// on-loan inference servers (maximizing the chance that reclaiming can be
// satisfied by scaling in), and an elastic job's base and flexible workers
// go to disjoint server groups so the flexible group can be released
// without preemption.
package place

import (
	"sort"

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
	// nil leaves the type to be locked by the first placed worker when
	// SingleGPUType is set.
	FixedGPU *cluster.GPUType
	// Exclude lists the IDs of servers that must not be used — the
	// base/flexible separation of §5.3. It is a handful of IDs, scanned.
	Exclude []int
	// Flexible marks the placed workers as elastic surplus.
	Flexible bool
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
	if n <= 0 {
		return nil, true
	}
	if opt.SingleGPUType && opt.FixedGPU == nil {
		// Try each candidate type in preference order.
		for _, pool := range poolOrder(opt) {
			gpu := poolGPU(c, pool)
			if gpu == nil {
				continue
			}
			o := opt
			o.FixedGPU = gpu
			o.PreferPool = pool
			o.AllowOther = false
			if ws, ok := Gang(c, j, n, o); ok {
				return ws, true
			}
		}
		return nil, false
	}
	var placed []job.Worker
	for i := 0; i < n; i++ {
		s := bestFit(c, j, opt)
		if s == nil {
			rollback(c, j, placed)
			return nil, false
		}
		w, ok := placeOne(c, j, s, opt.Flexible)
		if !ok {
			rollback(c, j, placed)
			return nil, false
		}
		placed = append(placed, w)
	}
	return placed, true
}

// UpTo places up to n workers of j, returning however many fit (possibly
// zero). Used for elastic scale-out, where partial fulfilment is fine
// (§5.2: the flexible demand "can be unfulfilled without serious impact").
func UpTo(c *cluster.Cluster, j *job.Job, n int, opt Options) []job.Worker {
	var placed []job.Worker
	for i := 0; i < n; i++ {
		s := bestFit(c, j, opt)
		if s == nil {
			break
		}
		w, ok := placeOne(c, j, s, opt.Flexible)
		if !ok {
			break
		}
		placed = append(placed, w)
		if opt.SingleGPUType && opt.FixedGPU == nil {
			gpu := w.GPU
			opt.FixedGPU = &gpu
		}
	}
	return placed
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

func placeOne(c *cluster.Cluster, j *job.Job, s *cluster.Server, flexible bool) (job.Worker, bool) {
	gpus := WorkerGPUs(j, s.GPU)
	if err := s.Allocate(j.ID, gpus, flexible); err != nil {
		return job.Worker{}, false
	}
	return job.Worker{Server: s.ID, GPU: s.GPU, GPUs: gpus, Flexible: flexible}, true
}

func rollback(c *cluster.Cluster, j *job.Job, placed []job.Worker) {
	for _, w := range placed {
		if err := c.Server(w.Server).Release(j.ID, w.GPUs); err != nil {
			panic("place: rollback failed: " + err.Error())
		}
	}
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

// poolGPU returns the GPU type of pool p's servers, nil if the pool is
// empty. Pools are homogeneous by construction (loaning moves whole
// inference servers); the lowest-ID member is the representative, matching
// the pre-index behavior of reading the head of the sorted pool slice.
func poolGPU(c *cluster.Cluster, p cluster.Pool) *cluster.GPUType {
	var g *cluster.GPUType
	c.EachPoolServer(p, func(s *cluster.Server) bool {
		gpu := s.GPU
		g = &gpu
		return false
	})
	return g
}

// bestFit returns the server to host one worker of j under opt, or nil.
// Preference order: preferred pool before the other; within a pool, the
// non-empty server with the least free space that still fits (best fit),
// falling back to an empty server; ties broken by server ID for
// determinism. The per-worker GPU requirement is evaluated per server GPU
// type (see WorkerGPUs).
//
// The pool-internal order (non-empty, then least free, then lowest ID) is
// the placement tie-break contract. cluster.BestFit resolves it on the
// free-count bucket index rather than by a full pool scan and documents the
// exact-equivalence argument; the cluster property test checks it against a
// naive scan in that order on random states.
func bestFit(c *cluster.Cluster, j *job.Job, opt Options) *cluster.Server {
	need := func(g cluster.GPUType) int { return WorkerGPUs(j, g) }
	for _, pool := range poolOrder(opt) {
		if s := c.BestFit(pool, need, opt.FixedGPU, opt.Exclude); s != nil {
			return s
		}
	}
	return nil
}

// FitsOnLoan reports whether one worker of j can be hosted by one of c's
// inference-class servers at all: with the memory-driven GPU doubling, a
// worker needing more GPUs than a whole T4 server has can never be placed
// on loaned capacity.
func FitsOnLoan(c *cluster.Cluster, j *job.Job) bool {
	return WorkerGPUs(j, cluster.T4) <= c.GPUsPerServer()
}

// SortByDemand orders jobs by decreasing per-worker GPU demand — the
// best-fit-decreasing order of §5.3 — breaking ties by ID.
func SortByDemand(jobs []*job.Job) {
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].GPUsPerWorker != jobs[k].GPUsPerWorker {
			return jobs[i].GPUsPerWorker > jobs[k].GPUsPerWorker
		}
		return jobs[i].ID < jobs[k].ID
	})
}
