package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"lyra/internal/job"
)

// polluxPin is the sha256 of the decisions TestPolluxDecisionsPinned draws.
// It changes only when the search does: a faster GA must keep its random
// draws and every fitness sum exactly as they are.
const polluxPin = "3545614d72cf2f6498b19195c2339e3a1a7c9c41aa67d07b3170f994713911fb"

// polluxInstance draws one search problem of n candidates from rng: distinct
// IDs in random order, rigid and elastic, some running (their floor is their
// base demand), and a capacity between a fifth and one and a half times their
// total base demand, so most instances cannot start everyone.
func polluxInstance(rng *rand.Rand, n int) ([]*job.Job, map[int]bool, int) {
	ids := rng.Perm(4 * n)
	jobs := make([]*job.Job, n)
	running := make(map[int]bool)
	demand := 0
	for i := range jobs {
		gpw := []int{1, 2, 4, 8}[rng.Intn(4)]
		lo := 1 + rng.Intn(4)
		hi := lo
		if rng.Float64() < 0.6 {
			hi += rng.Intn(8)
		}
		j := job.New(ids[i], int64(i), job.Generic, gpw, lo, hi, float64(100+rng.Intn(5000)))
		j.Elastic = hi > lo
		if rng.Float64() < 0.3 {
			running[j.ID] = true
		}
		demand += j.BaseGPUs()
		jobs[i] = j
	}
	return jobs, running, int(float64(demand) * (0.2 + 1.3*rng.Float64()))
}

// TestPolluxDecisionsPinned pins the GA's output over 300 seeded instances of
// up to 60 candidates, a quarter of them under a candidate cap, half under
// each scaling model, bit for bit.
func TestPolluxDecisionsPinned(t *testing.T) {
	h := sha256.New()
	var b [16]byte
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		jobs, running, capacity := polluxInstance(rng, n)
		cfg := DefaultPolluxConfig(seed)
		if rng.Intn(4) == 0 {
			cfg.MaxCandidates = 1 + rng.Intn(n)
		}
		sm := job.Linear
		if seed%2 == 1 {
			sm = job.Imperfect
		}
		dec := Pollux(jobs, running, capacity, cfg, sm)
		binary.LittleEndian.PutUint64(b[:8], uint64(len(dec)))
		h.Write(b[:8])
		for _, d := range dec {
			binary.LittleEndian.PutUint64(b[:8], uint64(d.ID))
			binary.LittleEndian.PutUint64(b[8:], uint64(d.Workers))
			h.Write(b[:])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != polluxPin {
		t.Errorf("Pollux decisions hash = %s, want %s", got, polluxPin)
	}
}

var benchDecisions []PolluxDecision

// BenchmarkPolluxGA is one search at the candidate cap: 300 candidates, the
// evaluation's 250 iterations over a population of 24.
func BenchmarkPolluxGA(b *testing.B) {
	jobs, running, capacity := polluxInstance(rand.New(rand.NewSource(1)), 300)
	cfg := DefaultPolluxConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDecisions = Pollux(jobs, running, capacity, cfg, job.Imperfect)
	}
}
