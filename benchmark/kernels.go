package main

import (
	"math/rand"
	"runtime"
	"time"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/knapsack"
	"lyra/internal/place"
)

// timeKernel calls fn n times and returns the median call in microseconds
// and the heap allocations per call.
func timeKernel(n int, fn func()) (p50us, allocs float64) {
	fn() // fault in whatever the first call sets up
	us := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start)) / 1e3
	}
	runtime.ReadMemStats(&after)
	return median(us), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// kernelMetrics times the four kernels the scheduler's cost reduces to, one
// call at a time and outside the engine, on inputs shaped by this workload:
// a speed-up of one of them shows here before it shows in wall_s.
func (in *simInput) kernelMetrics(m metricSet) {
	// The paper's own MCKP instance size (§5.2): 354 items as 59 groups of
	// 6, 245 GPUs of capacity.
	rng := rand.New(rand.NewSource(in.seed))
	groups := make([][]knapsack.Item, 59)
	for g := range groups {
		groups[g] = make([]knapsack.Item, 6)
		for i := range groups[g] {
			groups[g][i] = knapsack.Item{Weight: 2 * (i + 1), Value: rng.Float64() * float64(i+1)}
		}
	}
	p50, allocs := timeKernel(200, func() { knapsack.MultiChoice(groups, 245) })
	m.set("knapsack.MultiChoice.us_p50", p50)
	m.set("knapsack.MultiChoice.allocs", allocs)

	// Phase 2 over this workload's first elastic jobs, each at its base
	// demand, competing for the same 245 GPUs.
	var elastic []*job.Job
	for _, j := range in.trace.Jobs {
		if j.Elastic && j.FlexRange() > 0 {
			elastic = append(elastic, j.Clone())
			if len(elastic) == 354 {
				break
			}
		}
	}
	tune := alloc.Tuning{StabilityBonus: in.cfg.StabilityBonus, MaxItems: in.cfg.Phase2MaxItems}
	p50, allocs = timeKernel(50, func() { alloc.Phase2(elastic, 245, in.cfg.Scaling, tune, nil) })
	m.set("alloc.Phase2.us_p50", p50)
	m.set("alloc.Phase2.allocs", allocs)

	// Best-fit gang placement and a cross-shard server transfer on this
	// workload's cluster shape with the training pool half full: every
	// second server carries a partial allocation, so best-fit has buckets
	// to choose between.
	c := cluster.New(in.cfg.Cluster)
	for i := 0; i < in.cfg.Cluster.TrainingServers; i += 2 {
		if err := c.Server(i).Allocate(1+i, 1+(i/2)%7, false); err != nil {
			panic(err) // a fresh server always has room for up to 7 GPUs
		}
	}
	gang := job.New(1<<30, 0, job.Generic, 4, 4, 4, 3600)
	p50, allocs = timeKernel(2000, func() {
		ws, ok := place.Gang(c, gang, gang.MinWorkers, place.PreferTraining(true))
		if !ok {
			panic("benchmark: gang of 4x4 GPUs does not fit a half-empty cluster")
		}
		for _, w := range ws {
			if err := c.Server(w.Server).Release(gang.ID, w.GPUs); err != nil {
				panic(err)
			}
		}
	})
	m.set("place.Gang.us_p50", p50)
	m.set("place.Gang.allocs", allocs)

	last := in.cfg.Cluster.TrainingServers + in.cfg.Cluster.InferenceServers - 1
	p50, allocs = timeKernel(2000, func() {
		s, err := c.Detach(last)
		if err == nil {
			err = c.Adopt(s, cluster.PoolInference)
		}
		if err != nil {
			panic(err)
		}
	})
	m.set("cluster.DetachAdopt.us_p50", p50)
	m.set("cluster.DetachAdopt.allocs", allocs)
}
