package reclaim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// planInstance is one production-shaped reclaiming instance: nCand on-loan
// candidates (ascending IDs, the order cluster.PoolServers returns) among
// which a few training servers are interleaved. Jobs with random,
// non-contiguous IDs hold 1-, 2- or 4-GPU base workers and, when elastic,
// flexible ones, some of them on the training servers outside the candidate
// set; one job in ten is missing from the lookup, as a job that has just
// finished is.
func planInstance(rng *rand.Rand, nCand int) ([]*cluster.Server, func(int) *job.Job) {
	nOut := 1 + rng.Intn(8)
	all := make([]*cluster.Server, nCand+nOut)
	outside := make(map[int]bool, nOut)
	for _, i := range rng.Perm(len(all))[:nOut] {
		outside[i] = true
	}
	var onLoan, training []*cluster.Server
	for i := range all {
		if outside[i] {
			all[i] = cluster.NewServer(i, cluster.V100, 8, cluster.PoolTraining)
			training = append(training, all[i])
		} else {
			all[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
			onLoan = append(onLoan, all[i])
		}
	}
	jobs := make(map[int]*job.Job)
	drawn := make(map[int]bool)
	for k := 0; k < 2*nCand; k++ {
		id := rng.Intn(1 << 20)
		if drawn[id] {
			continue
		}
		drawn[id] = true
		g := []int{1, 2, 4}[rng.Intn(3)]
		j := job.New(id, 0, job.Generic, g, 1, 8, 100)
		j.State = job.Running
		base, flex := 1+rng.Intn(3), 0
		if rng.Intn(2) == 0 {
			j.Elastic = true
			flex = rng.Intn(4)
		}
		for w := 0; w < base+flex; w++ {
			s := onLoan[rng.Intn(len(onLoan))]
			if rng.Intn(5) == 0 {
				s = training[rng.Intn(len(training))]
			}
			if s.Free() < g {
				continue
			}
			if err := s.Allocate(id, g, w >= base); err != nil {
				panic(err)
			}
			j.Workers = append(j.Workers, job.Worker{Server: s.ID, GPU: s.GPU, GPUs: g, Flexible: w >= base})
		}
		if len(j.Workers) > 0 && rng.Intn(10) > 0 {
			jobs[id] = j
		}
	}
	return onLoan, lookupOf(jobs)
}

// writePlan hashes every field of a plan: the servers, the preempted jobs,
// the (job, server) scale-in pairs ascending by job then server, FlexOnly,
// and the picks with each cost's bits.
func writePlan(h hash.Hash, p Plan) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(vs []int) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	ints(p.Servers)
	ints(p.PreemptJobs)
	// The pairs hash as one flat list of job, server, job, server, ...
	put(uint64(2 * len(p.ScaleIn)))
	for _, pair := range p.ScaleIn {
		put(uint64(pair[0]))
		put(uint64(pair[1]))
	}
	put(uint64(p.FlexOnly))
	put(uint64(len(p.Picks)))
	for _, pk := range p.Picks {
		put(uint64(pk.Server))
		put(uint64(pk.Phase))
		put(math.Float64bits(pk.Cost))
		put(uint64(pk.Reuse))
		put(uint64(pk.Damage))
	}
}

// plansPin is the sha256 TestReclaimPlansPinned records.
const plansPin = "408b770d2ce5c5dbc1163e55302d1bf2dddf82855cf7d120e5a7754bc4d930c5"

// TestReclaimPlansPinned pins every field of every policy's plan, bit for
// bit, over 300 seeded instances of 4 to 120 candidates: a change to how the
// planners hold servers and jobs must not move one pick, one cost bit or one
// scale-in pair. The exhaustive optimum runs where it is cheap (up to 12
// candidates) and where it refuses (beyond its search bound).
func TestReclaimPlansPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCand := 4 + rng.Intn(117)
		if seed%3 == 0 {
			nCand = 4 + rng.Intn(9)
		}
		onLoan, lookup := planInstance(rng, nCand)
		n := 1 + rng.Intn(nCand+2)
		writePlan(h, Lyra{}.Plan(onLoan, lookup, n))
		writePlan(h, SCF{}.Plan(onLoan, lookup, n))
		writePlan(h, Random{Rng: rand.New(rand.NewSource(seed))}.Plan(onLoan, lookup, n))
		if nCand <= 12 || nCand > 22 {
			writePlan(h, Optimal{}.Plan(onLoan, lookup, n))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != plansPin {
		t.Errorf("reclaim plans hash = %s, want %s", got, plansPin)
	}
}

var benchPlan Plan

// BenchmarkReclaimPlan is one Lyra plan at prod-basic's median shape: 94
// on-loan candidates, mostly full, with base and flexible workers, and 7
// servers to reclaim.
func BenchmarkReclaimPlan(b *testing.B) {
	onLoan, lookup := planInstance(rand.New(rand.NewSource(1)), 94)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlan = Lyra{}.Plan(onLoan, lookup, 7)
	}
}
