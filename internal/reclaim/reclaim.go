// Package reclaim implements server selection for capacity reclaiming (§4):
// given that the inference cluster wants n on-loan servers back, choose
// which servers to vacate so that job preemptions are minimized.
//
// Lyra's heuristic treats the problem as a knapsack with dependent item
// values: a server's preemption cost is the sum over its jobs of the
// server's fraction of that job's servers, and the greedy loop re-computes
// costs after every pick because preempting a job zeroes its contribution
// on every other server it occupied. Flexible (elastic surplus) workers are
// released by scaling in, never counted as preemptions. Random and
// smallest-count-first (SCF) baselines and an exhaustive optimal solver
// (§7.3's comparison) are provided alongside.
package reclaim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// Plan is the outcome of a reclaiming decision. Executing it means: scale
// in every (job, server) pair in ScaleIn, preempt every job in PreemptJobs
// (removing them from all their servers), then return Servers to the
// inference cluster.
type Plan struct {
	Servers     []int // servers to vacate and return, ascending
	PreemptJobs []int // job IDs preempted, ascending
	// ScaleIn lists the (job, server) pairs whose flexible workers are
	// killed (the job itself keeps running), ascending by job then server.
	ScaleIn [][2]int
	// FlexOnly counts planned servers vacated purely by scale-in or
	// already empty — the "flexible server group" releases of §5.3.
	FlexOnly int
	// Picks, when filled by a policy, traces the selection order: one
	// entry per chosen server with the knapsack phase that took it and the
	// scores it won on. The Lyra heuristic records it so the decision
	// trace (obs reclaim.plan events) can show WHY each server was picked,
	// not just the final set. Baselines may leave it nil.
	Picks []Pick
}

// Pick is one step of a reclaim policy's selection trace.
type Pick struct {
	Server int
	Phase  int     // 1 = zero-preemption phase, 2 = greedy knapsack phase
	Cost   float64 // preemption cost at pick time (phase 2; 0 in phase 1)
	Reuse  int     // GPUs freed on other candidates by this pick
	Damage int     // collateral GPUs freed outside the candidate set
}

// Policy selects servers for reclaiming. lookup resolves job IDs to jobs.
type Policy interface {
	// Plan picks n servers among onLoan to vacate. If fewer than n can be
	// vacated (onLoan smaller than n), all of them are planned.
	Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan
	Name() string
}

// serverInfo is the mutable per-server view the planners work on.
type serverInfo struct {
	s *cluster.Server
	// base lists, ascending, the jobs with at least one non-flexible GPU on
	// the server; once a Lyra phase-2 pick takes the server, only those its
	// pick preempts. flex lists, ascending, the jobs with only flexible GPUs
	// on the server.
	base, flex []int
	taken      bool
}

// buildInfos snapshots the on-loan servers' holdings. Every list is a
// window of one array: a holding has at least one GPU, so the servers'
// GPU count bounds their job count.
func buildInfos(onLoan []*cluster.Server) []serverInfo {
	infos := make([]serverInfo, len(onLoan))
	gpus := 0
	for _, s := range onLoan {
		gpus += s.NumGPUs
	}
	ids := make([]int, 0, gpus)
	var jobs []int
	for i, s := range onLoan {
		jobs = s.AppendJobs(jobs[:0])
		lo := len(ids)
		for _, id := range jobs {
			if s.FlexibleGPUs(id) < s.JobGPUs(id) {
				ids = append(ids, id)
			}
		}
		mid := len(ids)
		for _, id := range jobs {
			if s.FlexibleGPUs(id) == s.JobGPUs(id) {
				ids = append(ids, id)
			}
		}
		infos[i] = serverInfo{s: s, base: ids[lo:mid:mid], flex: ids[mid:len(ids):len(ids)]}
	}
	return infos
}

// baseServerCounts maps every resolvable job with base workers on a
// candidate to its number of distinct servers with base workers, in any
// pool: the denominator of its cost shares.
func baseServerCounts(infos []serverInfo, lookup func(id int) *job.Job) map[int]int {
	counts := make(map[int]int)
	var srvs []int
	for i := range infos {
		for _, id := range infos[i].base {
			if _, ok := counts[id]; ok {
				continue
			}
			j := lookup(id)
			if j == nil {
				continue
			}
			srvs = srvs[:0]
			for _, w := range j.Workers {
				if !w.Flexible {
					srvs = append(srvs, w.Server)
				}
			}
			slices.Sort(srvs)
			counts[id] = len(slices.Compact(srvs))
		}
	}
	return counts
}

// cost returns the server preemption cost: the sum over base jobs not yet
// preempted of this server's fraction of the job's base servers (Table 1,
// last column). The shares are added in ascending job-ID order: float
// addition depends on order, and the cost is written into the reclaim.plan
// event stream.
func cost(info *serverInfo, baseServers map[int]int, preempted map[int]bool) float64 {
	c := 0.0
	for _, id := range info.base {
		if n := baseServers[id]; n > 0 && !preempted[id] {
			c += 1 / float64(n)
		}
	}
	return c
}

// sideEffects returns what preempting this server's remaining base jobs
// frees on *other* servers, split by whether those servers are themselves
// reclaim candidates: GPUs freed on other not-yet-taken on-loan candidates
// are reusable (those servers get cheaper, possibly free, to reclaim next),
// while GPUs freed anywhere else are the collateral damage of §4's
// tie-break.
func sideEffects(info *serverInfo, index map[int]*serverInfo, preempted map[int]bool, lookup func(id int) *job.Job) (reuse, damage int) {
	for _, id := range info.base {
		j := lookup(id)
		if j == nil || preempted[id] {
			continue
		}
		for _, w := range j.Workers {
			switch c := index[w.Server]; {
			case w.Server == info.s.ID:
			case c != nil && !c.taken:
				reuse += w.GPUs
			default:
				damage += w.GPUs
			}
		}
	}
	return reuse, damage
}

// finishPlan assembles the Plan from taken servers: jobs with base workers
// on any taken server are preempted; flexible workers on taken servers of
// surviving jobs are scaled in.
func finishPlan(infos []serverInfo) Plan {
	// An empty ScaleIn is non-nil: the reclaim.plan event prints it as [].
	plan := Plan{ScaleIn: [][2]int{}}
	for i := range infos {
		if info := &infos[i]; info.taken {
			plan.Servers = append(plan.Servers, info.s.ID)
			plan.PreemptJobs = append(plan.PreemptJobs, info.base...)
			if len(info.base) == 0 {
				plan.FlexOnly++
			}
		}
	}
	slices.Sort(plan.Servers)
	slices.Sort(plan.PreemptJobs)
	plan.PreemptJobs = slices.Compact(plan.PreemptJobs)
	for i := range infos {
		if info := &infos[i]; info.taken {
			for _, id := range info.flex {
				if _, preempted := slices.BinarySearch(plan.PreemptJobs, id); !preempted {
					plan.ScaleIn = append(plan.ScaleIn, [2]int{id, info.s.ID})
				}
			}
		}
	}
	slices.SortFunc(plan.ScaleIn, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return plan
}

// Lyra is the paper's reclaiming heuristic.
type Lyra struct{}

// Name implements Policy.
func (Lyra) Name() string { return "lyra" }

// Plan implements Policy. Phase one takes servers vacatable without any
// preemption (empty or flexible-only); phase two greedily picks the
// lowest-preemption-cost server, simulates preempting its jobs (updating
// the coupled costs of every other server), and repeats.
func (Lyra) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	infos := buildInfos(onLoan)
	baseServers := baseServerCounts(infos, lookup)
	var picks []Pick
	taken := 0
	// Phase one: zero-preemption servers, emptiest first so scale-ins are
	// minimized.
	free := make([]*serverInfo, 0, len(infos))
	for i := range infos {
		if len(infos[i].base) == 0 {
			free = append(free, &infos[i])
		}
	}
	slices.SortFunc(free, func(a, b *serverInfo) int {
		return cmp.Or(cmp.Compare(a.s.Used(), b.s.Used()), cmp.Compare(a.s.ID, b.s.ID))
	})
	for _, info := range free {
		if taken >= n {
			break
		}
		info.taken = true
		taken++
		picks = append(picks, Pick{Server: info.s.ID, Phase: 1})
	}
	// Phase two: greedy minimum-cost with cost updates. Preempting a pick's
	// jobs removes them everywhere: the preempted set drops their cost
	// contributions from every other server.
	index := make(map[int]*serverInfo, len(infos))
	for i := range infos {
		index[infos[i].s.ID] = &infos[i]
	}
	preempted := make(map[int]bool)
	for taken < n {
		var best *serverInfo
		bestCost := math.Inf(1)
		bestReuse, bestDamage := -1, 0
		for i := range infos {
			info := &infos[i]
			if info.taken {
				continue
			}
			c := cost(info, baseServers, preempted)
			if c > bestCost+1e-12 {
				continue
			}
			reuse, damage := sideEffects(info, index, preempted, lookup)
			better := c < bestCost-1e-12 ||
				reuse > bestReuse ||
				(reuse == bestReuse && damage < bestDamage) ||
				(reuse == bestReuse && damage == bestDamage && best != nil && info.s.ID < best.s.ID)
			if best == nil || better {
				best, bestCost, bestReuse, bestDamage = info, c, reuse, damage
			}
		}
		if best == nil {
			break // fewer on-loan servers than demanded
		}
		best.taken = true
		taken++
		picks = append(picks, Pick{Server: best.s.ID, Phase: 2, Cost: bestCost, Reuse: bestReuse, Damage: bestDamage})
		// best keeps only the jobs this pick preempts: a pick whose base
		// jobs all fell to earlier picks is vacated by scale-in alone.
		live := best.base[:0]
		for _, id := range best.base {
			if !preempted[id] {
				preempted[id] = true
				live = append(live, id)
			}
		}
		best.base = live
	}
	plan := finishPlan(infos)
	plan.Picks = picks
	return plan
}

// Random reclaims uniformly random on-loan servers — the Random baseline of
// §7.3.
type Random struct{ Rng *rand.Rand }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Plan implements Policy.
func (r Random) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	infos := buildInfos(onLoan)
	idx := r.Rng.Perm(len(infos))
	for i := 0; i < n && i < len(idx); i++ {
		infos[idx[i]].taken = true
	}
	return finishPlan(infos)
}

// SCF reclaims the servers hosting the smallest number of jobs — the
// smallest-(job)-count-first baseline of §7.1.
type SCF struct{}

// Name implements Policy.
func (SCF) Name() string { return "scf" }

// Plan implements Policy.
func (SCF) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	infos := buildInfos(onLoan)
	order := make([]*serverInfo, len(infos))
	for i := range infos {
		order[i] = &infos[i]
	}
	slices.SortFunc(order, func(a, b *serverInfo) int {
		return cmp.Or(cmp.Compare(len(a.base)+len(a.flex), len(b.base)+len(b.flex)), cmp.Compare(a.s.ID, b.s.ID))
	})
	for i := 0; i < n && i < len(order); i++ {
		order[i].taken = true
	}
	return finishPlan(infos)
}

// MaxOptimalServers bounds Optimal's search: it refuses larger candidate
// sets, so a configuration that can lend more inference servers than this
// cannot run it (lyra.Config.Validate).
const MaxOptimalServers = 22

// Optimal exhaustively searches all subsets of n on-loan servers for the
// one preempting the fewest jobs (ties: fewest vacated GPUs). It is
// exponential — §7.3 measures its running time at 420,000x Lyra's — and is
// provided for the optimality-gap comparison. Inputs beyond
// MaxOptimalServers servers return an empty plan.
type Optimal struct{}

// Name implements Policy.
func (Optimal) Name() string { return "optimal" }

// Plan implements Policy.
func (Optimal) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	if len(onLoan) > MaxOptimalServers {
		return Plan{}
	}
	infos := buildInfos(onLoan)
	if n > len(infos) {
		n = len(infos)
	}
	bestMask := -1
	bestPreempt, bestVacated := math.MaxInt32, math.MaxInt32
	var preempt []int
	var walk func(i, picked, mask int)
	walk = func(i, picked, mask int) {
		if picked == n {
			preempt = preempt[:0]
			for b := range infos {
				if mask&(1<<b) != 0 {
					preempt = append(preempt, infos[b].base...)
				}
			}
			slices.Sort(preempt)
			preempt = slices.Compact(preempt)
			vacated := 0
			for _, id := range preempt {
				if j := lookup(id); j != nil {
					vacated += j.GPUsHeld()
				}
			}
			if len(preempt) < bestPreempt || (len(preempt) == bestPreempt && vacated < bestVacated) {
				bestPreempt, bestVacated, bestMask = len(preempt), vacated, mask
			}
			return
		}
		if i >= len(infos) || len(infos)-i < n-picked {
			return
		}
		walk(i+1, picked+1, mask|(1<<i))
		walk(i+1, picked, mask)
	}
	walk(0, 0, 0)
	if bestMask >= 0 {
		for b := range infos {
			infos[b].taken = bestMask&(1<<b) != 0
		}
	}
	return finishPlan(infos)
}

// CostOf exposes the server preemption cost for a single server given the
// full job lookup — used by tests reproducing Table 1 and by the
// experiments harness.
func CostOf(s *cluster.Server, lookup func(id int) *job.Job) float64 {
	infos := buildInfos([]*cluster.Server{s})
	return cost(&infos[0], baseServerCounts(infos, lookup), nil)
}
