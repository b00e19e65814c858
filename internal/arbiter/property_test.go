package arbiter

import (
	"math/rand"
	"reflect"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
)

// topology builds nT training shards of 2 servers (each under a FIFO
// scheduler) and nI inference shards of 3 over contiguous global IDs,
// training ranges first.
func topology(nT, nI int, cfg sim.Config) *sim.Shards {
	sc := sim.ShardedConfig{}
	id := 0
	add := func(train, inf int) *cluster.Cluster {
		c := cluster.New(cluster.Config{
			TrainingServers: train, InferenceServers: inf,
			TrainingGPU: cluster.V100, InferenceGPU: cluster.T4,
			FirstID: id, Shard: len(sc.Train) + len(sc.Inf),
		})
		id += train + inf
		return c
	}
	for n := 0; n < nT; n++ {
		sc.Train = append(sc.Train, add(2, 0))
		sc.Scheds = append(sc.Scheds, &sched.FIFO{})
	}
	for m := 0; m < nI; m++ {
		sc.Inf = append(sc.Inf, add(0, 3))
	}
	return sim.NewShards(sc, cfg)
}

// churn is one inter-epoch step on a training state: part of the backlog is
// withdrawn (so idle loans are returned), new fungible jobs arrive, and the
// scheduler usually — not always — runs.
func churn(rng *rand.Rand, st *sim.State, s sim.Scheduler, nextID *int) {
	st.CompactPending()
	st.Pending = st.Pending[:rng.Intn(len(st.Pending)+1)]
	for i := rng.Intn(6); i > 0; i-- {
		j := job.New(*nextID, 0, job.Generic, 1<<rng.Intn(3), 1+rng.Intn(2), 1, 1000)
		j.Fungible = true
		*nextID++
		st.Enqueue(j, lessByID)
	}
	if rng.Intn(4) > 0 {
		s.Schedule(st)
	}
}

// retarget draws a fresh loan target for every inference shard and returns
// their sum.
func retarget(rng *rand.Rand, a *Arbiter) int {
	sum := 0
	for m := range a.Targets {
		target := rng.Intn(4)
		a.Targets[m] = fixedTarget(target)
		sum += target
	}
	return sum
}

func poolIDs(st *sim.State, p cluster.Pool) []int {
	var ids []int
	st.Cluster.EachPoolServer(p, func(s *cluster.Server) bool {
		ids = append(ids, s.ID)
		return true
	})
	return ids
}

// TestEpochProperties drives random topologies through several arbitration
// epochs with random per-shard targets and backlogs and the shard schedulers
// run in between. After every epoch the sum on loan is within the sum of the
// targets (the cap of §4, at every point rather than the one
// TestEpochHonoursGlobalLoanCap checks) and the ownership audit is clean.
func TestEpochProperties(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nT, nI := 2+rng.Intn(3), 1+rng.Intn(3)
		sh := topology(nT, nI, sim.Config{})
		a := New(make([]orchestrator.LoanTargeter, nI), reclaim.Lyra{}, lessByID)
		nextID := 0
		for epoch := 0; epoch < 8; epoch++ {
			sum := retarget(rng, a)
			for n, st := range sh.Train() {
				churn(rng, st, sh.Scheds[n], &nextID)
			}
			a.Epoch(sh)
			auditShards(t, sh, 2*nT+3*nI)
			lent := 0
			for _, n := range onLoan(sh) {
				lent += n
			}
			if lent > sum {
				t.Fatalf("seed %d epoch %d (%d+%d): %d servers on loan, targets sum to %d", seed, epoch, nT, nI, lent, sum)
			}
		}
	}
}

// TestOneBorrowerMatchesOrchestrator: with one training shard the arbiter is
// the orchestrator — over 1 to 3 inference shards and the same backlog, the
// servers on loan after every epoch are the ones Orchestrator.Epoch lends
// from a single cluster of the same global shape under the summed target.
func TestOneBorrowerMatchesOrchestrator(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rngA, rngO := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		nI := 1 + int(seed%3)
		sh := topology(1, nI, sim.Config{})
		a := New(make([]orchestrator.LoanTargeter, nI), reclaim.Lyra{}, lessByID)
		one := sim.NewState(cluster.New(cluster.Config{
			TrainingServers: 2, InferenceServers: 3 * nI,
			TrainingGPU: cluster.V100, InferenceGPU: cluster.T4,
		}), job.Linear, 63)
		idA, idO := 0, 0
		targets := rand.New(rand.NewSource(-seed))
		for epoch := 0; epoch < 8; epoch++ {
			sum := retarget(targets, a)
			churn(rngA, sh.Train()[0], sh.Scheds[0], &idA)
			churn(rngO, one, &sched.FIFO{}, &idO)
			a.Epoch(sh)
			orchestrator.New(fixedTarget(sum), reclaim.Lyra{}, lessByID).Epoch(one)
			got, want := poolIDs(sh.Train()[0], cluster.PoolOnLoan), poolIDs(one, cluster.PoolOnLoan)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d epoch %d (1+%d): arbiter has %v on loan, orchestrator %v", seed, epoch, nI, got, want)
			}
		}
	}
}
