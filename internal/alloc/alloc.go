// Package alloc implements resource allocation across jobs (§5.2): Lyra's
// two-phase heuristic — shortest-job-first over the inelastic workload
// (inelastic jobs plus elastic jobs' base demands), then a multiple-choice
// knapsack over the elastic jobs' flexible demands maximizing total JCT
// reduction — plus the allocation policies of the compared schemes (AFS's
// greedy marginal-gain loop and a Pollux-style goodput-maximizing genetic
// search).
package alloc

import (
	"cmp"
	"slices"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/knapsack"
)

// Phase2MaxItems is the default cap on the number of knapsack items
// generated per elastic job. Jobs with a wider flexible range get evenly
// spaced worker counts; this keeps the pseudo-polynomial DP fast at
// production scale while preserving the choice structure. Sweeps override
// it per call via Tuning.MaxItems.
const Phase2MaxItems = 8

// Tuning carries the per-call MCKP knobs. The zero value selects the
// package defaults (StabilityBonus, Phase2MaxItems); the ablation
// experiments pass explicit values instead of mutating globals so that
// simulations can run concurrently.
type Tuning struct {
	// StabilityBonus overrides the current-allocation value bump
	// (0 = default; 1 disables the damping).
	StabilityBonus float64
	// MaxItems overrides the per-job knapsack item cap (0 = default).
	MaxItems int
}

func (t Tuning) stabilityBonus() float64 {
	if t.StabilityBonus == 0 {
		return StabilityBonus
	}
	return t.StabilityBonus
}

func (t Tuning) maxItems() int {
	if t.MaxItems == 0 {
		return Phase2MaxItems
	}
	return t.MaxItems
}

// Extra is a phase-2 decision: give job ID extra workers beyond its base
// demand (its current flexible workers are included in Extra, i.e. Extra is
// the new target, not a delta).
type Extra struct {
	ID    int
	Extra int
}

// JCTReduction returns the phase-2 item value for giving j extra workers
// beyond its minimum: the reduction of its remaining running time relative
// to running at base demand (§5.2, Figure 6). Throughput is evaluated at
// reference (training-GPU) speed; on-loan GPUs are normalized by placement.
func JCTReduction(j *job.Job, extra int, sm job.ScalingModel) float64 {
	base := j.NominalThroughput(j.MinWorkers, cluster.V100, sm)
	more := j.NominalThroughput(j.MinWorkers+extra, cluster.V100, sm)
	return reduction(j.Remaining, base, more)
}

// reduction is the running time saved on remaining work by raising the
// throughput from base to more.
func reduction(remaining, base, more float64) float64 {
	if base <= 0 || more <= 0 {
		return 0
	}
	return remaining/base - remaining/more
}

// ThroughputCache memoizes per-job nominal-throughput tables. A job's
// nominal throughput at w workers depends only on immutable job fields
// (worker shape, scaling exponent) and the run's ScalingModel — never on
// progress, placement or tuning state — so the table over the job's whole
// worker range [MinWorkers, MaxWorkers] is computed once per job per run
// and reused by every phase-2 / AFS epoch, instead of re-evaluating the
// model O(items) times per candidate per epoch. Cached values come from the
// same NominalThroughput calls, so decisions are bit-identical with and
// without the cache — the differential fuzz target and the golden stream
// both pin this. One cache belongs to one scheduler instance (one run); it
// is not safe for concurrent use.
type ThroughputCache struct {
	sm  job.ScalingModel
	tbl map[int][]float64 // job ID → throughput at MinWorkers+k for k in [0, FlexRange]
}

// NewThroughputCache returns an empty cache for one run's scaling model.
func NewThroughputCache(sm job.ScalingModel) *ThroughputCache {
	return &ThroughputCache{sm: sm, tbl: make(map[int][]float64)}
}

func (c *ThroughputCache) table(j *job.Job) []float64 {
	if t, ok := c.tbl[j.ID]; ok {
		return t
	}
	t := make([]float64, j.FlexRange()+1)
	for k := range t {
		t[k] = j.NominalThroughput(j.MinWorkers+k, cluster.V100, c.sm)
	}
	c.tbl[j.ID] = t
	return t
}

// nominal returns j's nominal throughput at w workers, from the table when
// w is inside the job's worker range.
func (c *ThroughputCache) nominal(j *job.Job, w int) float64 {
	if k := w - j.MinWorkers; k >= 0 && k <= j.FlexRange() {
		return c.table(j)[k]
	}
	return j.NominalThroughput(w, cluster.V100, c.sm)
}

// Workspace is one scheduler's phase-2 scratch, reused from epoch to epoch
// so that a warm call allocates nothing: the throughput tables, the MCKP
// solver, the buffers the groups are built in and the returned targets.
// The zero value is ready; not safe for concurrent use.
type Workspace struct {
	tables  *ThroughputCache
	solver  knapsack.Solver
	ordered []*job.Job      // ID-sorted copy of an unsorted input
	items   []knapsack.Item // every group's items, back to back
	extras  []int           // extras[i] is the extra-worker count items[i] stands for
	start   []int           // group g is items[start[g]:start[g+1]]
	owners  []*job.Job      // owners[g] is the job group g belongs to
	groups  [][]knapsack.Item
	out     []Extra // the targets the last call returned
}

// itemExtras appends to dst the candidate extra-worker counts for one job,
// ascending: all of 1..FlexRange when small, otherwise maxItems evenly
// spaced values always including FlexRange. current (the job's present
// extra workers) is always included so the stability bonus below has an
// item to attach to.
func itemExtras(dst []int, flexRange, current, maxItems int) []int {
	if flexRange <= maxItems {
		for k := 1; k <= flexRange; k++ {
			dst = append(dst, k)
		}
		return dst
	}
	prev := 0
	for i := 1; i <= maxItems; i++ {
		k := i * flexRange / maxItems // >= 1: flexRange > maxItems
		if k == prev {
			continue
		}
		if prev < current && current < k {
			dst = append(dst, current)
		}
		dst = append(dst, k)
		prev = k
	}
	return dst
}

// StabilityBonus is the default relative value bump a job's current
// allocation item receives in the MCKP, so that the solution only moves
// flexible workers between jobs when the JCT-reduction improvement is real
// — without it the knapsack reshuffles workers every epoch as
// remaining-work values drift, inflating scaling operations (§7.4 measures
// Pollux at 1.76x Lyra's scaling-operation count; the damping keeps Lyra on
// the right side of that comparison). Pass Tuning.StabilityBonus = 1 to
// disable per call (the ablation experiments do).
const StabilityBonus = 1.08

// Phase2 solves the flexible-demand allocation as a multiple-choice
// knapsack (§5.2): each elastic job contributes a group of items (one per
// candidate extra-worker count), weights are GPUs, values are JCT
// reductions, and the capacity is the number of GPUs available for flexible
// workers. It returns the target extra workers per job (jobs absent from
// the result get zero), valid until the next call on ws, the caller's
// reused Workspace; nil solves in a fresh one, with the same result.
func Phase2(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, tune Tuning, ws *Workspace) []Extra {
	if capacityGPUs <= 0 || len(jobs) == 0 {
		return nil
	}
	if ws == nil {
		ws = new(Workspace)
	}
	if ws.tables == nil {
		ws.tables = NewThroughputCache(sm)
	}
	bonus, maxItems := tune.stabilityBonus(), tune.maxItems()
	// Deterministic group order: by ID, as State.ElasticOrdered already is.
	ordered := jobs
	if !slices.IsSortedFunc(jobs, byID) {
		ws.ordered = append(ws.ordered[:0], jobs...)
		ordered = ws.ordered
		slices.SortFunc(ordered, byID)
	}
	out := slices.Grow(ws.out[:0], len(ordered))
	ws.out = out

	// Shortcut: if everything fits, skip the DP.
	total := 0
	for _, j := range ordered {
		total += j.FlexRange() * j.GPUsPerWorker
	}
	if total <= capacityGPUs {
		for _, j := range ordered {
			if j.FlexRange() > 0 {
				out = append(out, Extra{ID: j.ID, Extra: j.FlexRange()})
			}
		}
		return out
	}

	// Scale weights down by the common GPU granularity.
	g := 0
	for _, j := range ordered {
		g = gcd(g, j.GPUsPerWorker)
	}
	if g == 0 {
		g = 1
	}

	ws.items, ws.extras, ws.start, ws.owners = ws.items[:0], ws.extras[:0], ws.start[:0], ws.owners[:0]
	for _, j := range ordered {
		fr := j.FlexRange()
		if fr == 0 {
			continue
		}
		cur := j.FlexibleWorkers()
		ws.start = append(ws.start, len(ws.items))
		ws.owners = append(ws.owners, j)
		ws.extras = itemExtras(ws.extras, fr, cur, maxItems)
		tput := ws.tables.table(j)
		for _, k := range ws.extras[len(ws.items):] {
			v := reduction(j.Remaining, tput[0], tput[k])
			if k == cur {
				v *= bonus
			}
			ws.items = append(ws.items, knapsack.Item{Weight: k * j.GPUsPerWorker / g, Value: v})
		}
	}
	ws.start = append(ws.start, len(ws.items))
	ws.groups = ws.groups[:0]
	for gi := range ws.owners {
		ws.groups = append(ws.groups, ws.items[ws.start[gi]:ws.start[gi+1]])
	}
	_, choice := ws.solver.MultiChoice(ws.groups, capacityGPUs/g)
	for gi, ci := range choice {
		if ci >= 0 {
			out = append(out, Extra{ID: ws.owners[gi].ID, Extra: ws.extras[ws.start[gi]+ci]})
		}
	}
	return out
}

func byID(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AFS allocates flexible workers the way Elastic Resource Sharing does as
// modeled in §7.1: after every job has its base demand, repeatedly give one
// more worker to the job with the largest marginal throughput gain per GPU
// until the capacity is exhausted. Ties favor the job with the most
// remaining work — the greedy bias toward big throughput consumers that
// costs AFS average JCT (§7.4). cache memoizes the throughput tables across
// calls; nil gives this call a fresh one, as Phase2 does for its workspace.
func AFS(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, cache *ThroughputCache) []Extra {
	if cache == nil {
		cache = NewThroughputCache(sm)
	}
	type state struct {
		j     *job.Job
		extra int
	}
	states := make([]*state, 0, len(jobs))
	for _, j := range jobs {
		if j.FlexRange() > 0 {
			states = append(states, &state{j: j})
		}
	}
	sort.Slice(states, func(i, k int) bool { return states[i].j.ID < states[k].j.ID })
	remaining := capacityGPUs
	for {
		var best *state
		bestGain := 0.0
		for _, s := range states {
			if s.extra >= s.j.FlexRange() || s.j.GPUsPerWorker > remaining {
				continue
			}
			w := s.j.MinWorkers + s.extra
			gain := (cache.nominal(s.j, w+1) - cache.nominal(s.j, w)) / float64(s.j.GPUsPerWorker)
			switch {
			case best == nil || gain > bestGain+1e-12:
				best, bestGain = s, gain
			case gain > bestGain-1e-12 && s.j.Remaining > best.j.Remaining:
				best = s
			}
		}
		if best == nil {
			break
		}
		best.extra++
		remaining -= best.j.GPUsPerWorker
	}
	var out []Extra
	for _, s := range states {
		if s.extra > 0 {
			out = append(out, Extra{ID: s.j.ID, Extra: s.extra})
		}
	}
	return out
}
