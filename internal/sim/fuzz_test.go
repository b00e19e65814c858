package sim

import (
	"math/rand"
	"sort"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/place"
)

// chaosSched drives the state through random but individually legal
// transitions — start, scale out, scale in, preempt — so the fuzzer
// explores event interleavings no real scheduler produces. The invariant
// auditor runs after every event; any state-accounting bug reachable
// through the public State API turns into a panic the fuzz target reports.
type chaosSched struct{ rng *rand.Rand }

func (c *chaosSched) Less(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func (c *chaosSched) Schedule(st *State) {
	ids := make([]int, 0, len(st.Running))
	for id := range st.Running {
		ids = append(ids, id)
	}
	sort.Ints(ids) // map order would desynchronize the rng across runs
	for _, id := range ids {
		j := st.Running[id]
		switch c.rng.Intn(6) {
		case 0:
			st.Preempt(j, c.Less)
		case 1:
			st.RemoveFlexibleWorkers(j, 1+c.rng.Intn(3))
		case 2:
			if room := j.FlexRange() - j.FlexibleWorkers(); j.Elastic && room > 0 {
				if ws := place.AppendUpTo(nil, st.Cluster, j, 1+c.rng.Intn(room), chaosScaleOutOpts(j)); len(ws) > 0 {
					st.AddWorkers(j, ws)
				}
			}
		}
	}
	for _, j := range st.Pending {
		if c.rng.Intn(4) > 0 {
			if ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferTraining(true)); ok {
				st.Start(j, ws)
			}
		}
	}
	st.CompactPending()
}

// chaosScaleOutOpts mirrors the schedulers' scale-out options: flexible
// workers anywhere, pinned to the gang's GPU type for non-hetero jobs.
func chaosScaleOutOpts(j *job.Job) place.Options {
	opt := place.Options{Flexible: true, AllowOther: true, PreferPool: cluster.PoolOnLoan}
	if !j.Hetero {
		opt.SingleGPUType = true
		if len(j.Workers) > 0 {
			opt.FixedGPU = cluster.PinGPU(j.Workers[0].GPU)
		}
	}
	return opt
}

// chaosOrch randomly loans inference servers and reclaims on-loan servers
// (flexible scale-in first, then preemption — the legal vacate order).
type chaosOrch struct {
	rng  *rand.Rand
	less func(a, b *job.Job) bool
}

func (o *chaosOrch) Epoch(st *State) {
	if o.rng.Intn(2) == 0 {
		if srvs := st.Cluster.PoolServers(cluster.PoolInference); len(srvs) > 0 {
			s := srvs[o.rng.Intn(len(srvs))]
			if err := st.Cluster.Move(s.ID, cluster.PoolOnLoan); err != nil {
				panic(err)
			}
		}
	}
	if o.rng.Intn(2) == 0 {
		if srvs := st.Cluster.PoolServers(cluster.PoolOnLoan); len(srvs) > 0 {
			s := srvs[o.rng.Intn(len(srvs))]
			for _, id := range s.Jobs() {
				if j := st.Running[id]; j != nil {
					st.RemoveFlexibleOnServer(j, s.ID, len(j.Workers))
				}
			}
			for _, id := range s.Jobs() {
				if j := st.Running[id]; j != nil {
					st.Preempt(j, o.less)
				}
			}
			if err := st.Cluster.Move(s.ID, cluster.PoolInference); err != nil {
				panic(err)
			}
		}
	}
}

// FuzzChaosInterleavings replays random job mixes through the chaos
// scheduler and orchestrator with the auditor on. The seed corpus runs as
// part of the ordinary test suite; `go test -fuzz=FuzzChaosInterleavings
// ./internal/sim/` explores further. A finding means some interleaving of
// start/scale/preempt/reclaim corrupts the state accounting.
func FuzzChaosInterleavings(f *testing.F) {
	f.Add(int64(1), uint8(24))
	f.Add(int64(7), uint8(40))
	f.Add(int64(42), uint8(12))
	f.Add(int64(-3), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, njobs uint8) {
		n := int(njobs%64) + 4
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]*job.Job, 0, n)
		for i := 0; i < n; i++ {
			gpw := []int{1, 1, 2, 4}[rng.Intn(4)]
			min := 1 + rng.Intn(2)
			max := min + rng.Intn(3)
			j := job.New(i, int64(rng.Intn(4000)), job.Generic, gpw, min, max, float64(60+rng.Intn(1200)))
			j.Elastic = max > min
			j.Fungible = rng.Intn(2) == 0
			j.Hetero = rng.Intn(4) == 0
			j.Checkpoint = rng.Intn(2) == 0
			jobs = append(jobs, j)
		}
		c := cluster.New(cluster.Config{TrainingServers: 3, InferenceServers: 3})
		sched := &chaosSched{rng: rng}
		e := New(c, jobs, 20000, sched, &chaosOrch{rng: rng, less: sched.Less}, Config{Audit: true})
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("invariant violation under chaos interleaving: %v", r)
			}
		}()
		e.Run()
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
