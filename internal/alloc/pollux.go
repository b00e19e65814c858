package alloc

import (
	"math"
	"math/rand"
	"slices"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// PolluxConfig sizes the goodput-maximizing genetic search modeled after
// Pollux (§7.1). The paper finds the preset 100 iterations insufficient at
// 3,500-GPU scale and runs 250 to keep scheduling overhead acceptable.
type PolluxConfig struct {
	Iterations int // default 250
	Population int // default 24
	Seed       int64
	// EfficiencyDecay is the per-extra-worker statistical-efficiency loss
	// in the goodput model (Pollux's batch-size/efficiency trade-off).
	EfficiencyDecay float64 // default 0.06
	// MaxCandidates caps how many jobs one search considers, keeping the
	// per-epoch cost bounded at production scale.
	MaxCandidates int // default 300
	// Rng is the search's stream, reseeded with Seed at each call: the same
	// draws as a fresh source, without allocating one. Nil makes one.
	Rng *rand.Rand
	// Work is the search's scratch, reused from call to call; the returned
	// decisions live in it, valid until its next call. Nil makes one.
	Work *PolluxWorkspace
}

// DefaultPolluxConfig returns the evaluation configuration, with its own Rng and Work.
func DefaultPolluxConfig(seed int64) PolluxConfig {
	return PolluxConfig{Iterations: 250, Population: 24, Seed: seed, EfficiencyDecay: 0.06, MaxCandidates: 300,
		Rng: rand.New(rand.NewSource(seed)), Work: new(PolluxWorkspace)}
}

// PolluxWorkspace is one scheduler's GA scratch, reused from search to
// search so that a warm call allocates nothing; reuse changes no draw and no
// sum. The zero value is ready; not safe for concurrent use.
type PolluxWorkspace struct {
	jobs             []*job.Job
	floor, off, shrk []int
	gp               []float64
	pop              []*genome // the population, then the spare
	out              []PolluxDecision
}

// genome is one allocation vector of the search with its GPU and goodput totals.
type genome struct {
	workers []int
	gpus    int
	fitness float64
}

// sized returns buf resliced to length n, grown if shorter; contents are stale.
func sized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

func (c PolluxConfig) withDefaults() PolluxConfig {
	if c.Iterations == 0 {
		c.Iterations = 250
	}
	if c.Population == 0 {
		c.Population = 24
	}
	if c.EfficiencyDecay == 0 {
		c.EfficiencyDecay = 0.06
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 300
	}
	return c
}

// PolluxDecision is the allocation for one job: zero workers means the job
// is not scheduled this round (Pollux does not explicitly launch as many
// jobs as possible, which is why its queuing times trail Lyra's, §7.4).
type PolluxDecision struct {
	ID      int
	Workers int // total workers (0, or in [MinWorkers, MaxWorkers])
}

// goodput models Pollux's normalized goodput (speedup): the job's
// throughput x statistical-efficiency product relative to running at base
// demand. Each worker beyond the base contributes with geometrically
// decaying efficiency. An unscheduled job contributes zero, so the search
// still has an incentive to start jobs — but unlike Lyra it does not
// explicitly launch as many as possible (§7.4).
func goodput(j *job.Job, workers int, decay float64, sm job.ScalingModel) float64 {
	if workers <= 0 {
		return 0
	}
	thr := j.NominalThroughput(workers, cluster.V100, sm)
	base := j.NominalThroughput(j.MinWorkers, cluster.V100, sm)
	if base <= 0 {
		return 0
	}
	eff := 1.0
	for w := j.MinWorkers; w < workers; w++ {
		eff *= 1 - decay
	}
	return thr * eff / base
}

// Pollux searches for the allocation vector maximizing total goodput under
// the GPU capacity, via a mutation-based genetic algorithm with incremental
// fitness evaluation. candidates are pending or running jobs; running jobs
// may be resized within their range but are never dropped to zero
// (our adaptation is non-preemptive, matching the rest of the evaluation).
func Pollux(candidates []*job.Job, running map[int]bool, capacityGPUs int, cfg PolluxConfig, sm job.ScalingModel) []PolluxDecision {
	cfg = cfg.withDefaults()
	if len(candidates) == 0 || capacityGPUs <= 0 {
		return nil
	}
	ws := cfg.Work
	if ws == nil {
		ws = new(PolluxWorkspace)
	}
	jobs := append(ws.jobs[:0], candidates...)
	slices.SortFunc(jobs, byID)
	if len(jobs) > cfg.MaxCandidates {
		jobs = jobs[:cfg.MaxCandidates]
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	rng.Seed(cfg.Seed)

	// floor[i] is the fewest workers jobs[i] may hold: running jobs keep
	// their base demand, pending ones may go unscheduled. gp memoizes
	// goodput(jobs[i], w) at gp[off[i]+w], NaN until first asked for.
	floor, off := sized(ws.floor, len(jobs)), append(ws.off[:0], 0)
	for i, j := range jobs {
		floor[i] = 0
		if running[j.ID] {
			floor[i] = j.MinWorkers
		}
		off = append(off, off[i]+j.MaxWorkers+1)
	}
	gp := sized(ws.gp, off[len(jobs)])
	for k := range gp {
		gp[k] = math.NaN()
	}
	goodputOf := func(i, w int) float64 {
		k := off[i] + w
		if math.IsNaN(gp[k]) {
			gp[k] = goodput(jobs[i], w, cfg.EfficiencyDecay, sm)
		}
		return gp[k]
	}
	eval := func(g *genome) {
		g.gpus, g.fitness = 0, 0
		for i, w := range g.workers {
			g.gpus += w * jobs[i].GPUsPerWorker
			g.fitness += goodputOf(i, w)
		}
	}
	feasible := func(g *genome) bool { return g.gpus <= capacityGPUs }
	shrinkable := ws.shrk[:0]
	shrink := func(g *genome, i int) {
		// Shrink within range, or drop a pending job entirely.
		var next int
		if g.workers[i] > jobs[i].MinWorkers {
			next = g.workers[i] - 1
		} else {
			next = floor[i]
		}
		g.gpus -= (g.workers[i] - next) * jobs[i].GPUsPerWorker
		g.fitness += goodputOf(i, next) - goodputOf(i, g.workers[i])
		g.workers[i] = next
	}
	repair := func(g *genome, rng *rand.Rand) {
		if g.gpus <= capacityGPUs {
			return
		}
		shrinkable = shrinkable[:0]
		for i, w := range g.workers {
			if w > floor[i] {
				shrinkable = append(shrinkable, i)
			}
		}
		// Shrink a random victim repeatedly until feasible or it bottoms
		// out; then only the victim has left the shrinkable set.
		for len(shrinkable) > 0 {
			k := rng.Intn(len(shrinkable))
			i := shrinkable[k]
			for g.gpus > capacityGPUs && g.workers[i] > floor[i] {
				shrink(g, i)
			}
			if g.gpus <= capacityGPUs {
				return
			}
			shrinkable = slices.Delete(shrinkable, k, k+1)
		}
	}

	// Seed the population: genome 0 packs pending jobs greedily at base
	// demand in candidate order (a launch-friendly starting point the
	// search refines), genome 1 keeps everything at its floor, the rest
	// are random.
	for len(ws.pop) <= cfg.Population {
		ws.pop = append(ws.pop, new(genome))
	}
	pop, spare := ws.pop[:cfg.Population], ws.pop[cfg.Population]
	spare.workers = sized(spare.workers, len(jobs))
	for p := range pop {
		g := pop[p]
		g.workers = sized(g.workers, len(jobs))
		budget := capacityGPUs
		for i, j := range jobs {
			switch {
			case p == 0:
				w := floor[i]
				if w == 0 && j.BaseGPUs() <= budget {
					w = j.MinWorkers
				}
				budget -= w * j.GPUsPerWorker
				g.workers[i] = w
			case p == 1 || rng.Float64() < 0.5:
				g.workers[i] = floor[i]
			default:
				g.workers[i] = j.MinWorkers + rng.Intn(j.FlexRange()+1)
			}
		}
		eval(g)
		repair(g, rng)
	}

	best := pop[0]
	for _, g := range pop[1:] {
		if g.fitness > best.fitness {
			best = g
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		// Tournament: mutate a copy of a good genome, replace a bad one. The
		// copy is made in spare, which trades places with the victim.
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		parent, victim := a, b
		if b.fitness > a.fitness {
			parent, victim = b, a
		}
		child := spare
		copy(child.workers, parent.workers)
		child.gpus, child.fitness = parent.gpus, parent.fitness
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(len(jobs))
			j := jobs[i]
			var next int
			if rng.Float64() < 0.3 && floor[i] == 0 {
				// Toggle scheduling of a pending job.
				if child.workers[i] == 0 {
					next = j.MinWorkers
				} else {
					next = 0
				}
			} else {
				next = j.MinWorkers + rng.Intn(j.FlexRange()+1)
			}
			child.gpus += (next - child.workers[i]) * j.GPUsPerWorker
			child.fitness += goodputOf(i, next) - goodputOf(i, child.workers[i])
			child.workers[i] = next
		}
		repair(child, rng)
		if !feasible(child) {
			continue
		}
		*victim, *spare = *child, *victim
		if victim.fitness > best.fitness {
			best = victim
		}
	}

	out := ws.out[:0]
	for i, w := range best.workers {
		out = append(out, PolluxDecision{ID: jobs[i].ID, Workers: max(w, floor[i])})
	}
	ws.jobs, ws.floor, ws.off, ws.gp, ws.shrk, ws.out = jobs, floor, off, gp, shrinkable, out
	return out
}
