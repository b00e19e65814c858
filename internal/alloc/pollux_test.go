package alloc

import (
	"math/rand"
	"slices"
	"testing"

	"lyra/internal/job"
)

func polluxJobs(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		j := job.New(i, int64(i), job.Generic, 1, 2, 6, 100)
		j.Elastic = true
		jobs[i] = j
	}
	return jobs
}

func TestPolluxRespectsCapacity(t *testing.T) {
	jobs := polluxJobs(8)
	for _, capGPUs := range []int{0, 4, 10, 25, 100} {
		dec := Pollux(jobs, nil, capGPUs, DefaultPolluxConfig(1), job.Linear)
		total := 0
		for _, d := range dec {
			total += d.Workers
		}
		if total > capGPUs {
			t.Errorf("cap %d: allocated %d workers", capGPUs, total)
		}
	}
}

func TestPolluxNeverDropsRunningBelowBase(t *testing.T) {
	jobs := polluxJobs(5)
	running := map[int]bool{0: true, 2: true}
	dec := Pollux(jobs, running, 8, DefaultPolluxConfig(3), job.Linear)
	for _, d := range dec {
		if running[d.ID] && d.Workers < 2 {
			t.Errorf("running job %d shrunk to %d workers (below base)", d.ID, d.Workers)
		}
	}
}

func TestPolluxRespectsRange(t *testing.T) {
	jobs := polluxJobs(4)
	dec := Pollux(jobs, nil, 1000, DefaultPolluxConfig(5), job.Linear)
	for _, d := range dec {
		if d.Workers != 0 && (d.Workers < 2 || d.Workers > 6) {
			t.Errorf("job %d allocated %d workers outside {0} U [2,6]", d.ID, d.Workers)
		}
	}
}

func TestPolluxAbundantCapacityStartsEveryone(t *testing.T) {
	jobs := polluxJobs(6)
	dec := Pollux(jobs, nil, 1000, DefaultPolluxConfig(7), job.Linear)
	started := 0
	for _, d := range dec {
		if d.Workers > 0 {
			started++
		}
	}
	if started != 6 {
		t.Errorf("abundant capacity started %d of 6 jobs", started)
	}
}

func TestPolluxDeterministicInSeed(t *testing.T) {
	a := Pollux(polluxJobs(6), nil, 12, DefaultPolluxConfig(9), job.Linear)
	b := Pollux(polluxJobs(6), nil, 12, DefaultPolluxConfig(9), job.Linear)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPolluxEmptyInputs(t *testing.T) {
	if dec := Pollux(nil, nil, 10, DefaultPolluxConfig(1), job.Linear); dec != nil {
		t.Errorf("no candidates: %v", dec)
	}
	if dec := Pollux(polluxJobs(2), nil, 0, DefaultPolluxConfig(1), job.Linear); dec != nil {
		t.Errorf("no capacity: %v", dec)
	}
}

func TestPolluxCandidateCap(t *testing.T) {
	cfg := DefaultPolluxConfig(1)
	cfg.MaxCandidates = 3
	dec := Pollux(polluxJobs(10), nil, 1000, cfg, job.Linear)
	if len(dec) != 3 {
		t.Errorf("candidate cap ignored: %d decisions", len(dec))
	}
}

func TestGoodputDiminishingReturns(t *testing.T) {
	j := polluxJobs(1)[0]
	g4 := goodput(j, 4, 0.06, job.Linear)
	g6 := goodput(j, 6, 0.06, job.Linear)
	lin4 := 2.0 // 4 workers / 2 base
	if g4 >= lin4 {
		t.Errorf("goodput(4) = %v should trail linear speedup %v", g4, lin4)
	}
	if g6 <= g4 {
		t.Errorf("goodput should still grow: g6=%v g4=%v", g6, g4)
	}
	if goodput(j, 0, 0.06, job.Linear) != 0 {
		t.Error("unscheduled job should have zero goodput")
	}
	if g := goodput(j, 2, 0.06, job.Linear); g != 1 {
		t.Errorf("base-demand goodput = %v, want 1 (normalized)", g)
	}
}

// A reused stream is reseeded at every call, so a search that draws from
// one another search already drew from decides exactly as a fresh source
// does, over the pinned instances.
func TestPolluxReusedStreamMatchesFresh(t *testing.T) {
	reused := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, running, capacity := polluxInstance(rng, 1+rng.Intn(60))
		fresh := DefaultPolluxConfig(seed)
		fresh.Rng = nil
		shared := fresh
		shared.Rng = reused
		want := Pollux(jobs, running, capacity, fresh, job.Imperfect)
		if got := Pollux(jobs, running, capacity, shared, job.Imperfect); !slices.Equal(got, want) {
			t.Fatalf("seed %d: reused stream decided %v, a fresh source %v", seed, got, want)
		}
	}
}
