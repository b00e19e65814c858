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
	"math"
	"math/rand"
	"slices"
	"sort"

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
	// ScaleIn maps job ID -> servers where its flexible workers are
	// killed (the job itself keeps running).
	ScaleIn map[int][]int
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
	// baseJobs are jobs with at least one non-flexible GPU on the server.
	baseJobs map[int]bool
	// flexJobs are jobs with only flexible GPUs on the server.
	flexJobs map[int]bool
	taken    bool
}

// buildInfos snapshots the on-loan servers and, per job, the set of servers
// hosting its base workers.
func buildInfos(onLoan []*cluster.Server, lookup func(id int) *job.Job) ([]*serverInfo, map[int]map[int]bool) {
	infos := make([]*serverInfo, 0, len(onLoan))
	baseServers := make(map[int]map[int]bool) // job -> all servers with base workers (any pool)
	seen := make(map[int]bool)
	for _, s := range onLoan {
		info := &serverInfo{s: s, baseJobs: make(map[int]bool), flexJobs: make(map[int]bool)}
		for _, id := range s.Jobs() {
			if s.FlexibleGPUs(id) == s.JobGPUs(id) {
				info.flexJobs[id] = true
			} else {
				info.baseJobs[id] = true
			}
			if !seen[id] {
				seen[id] = true
				if j := lookup(id); j != nil {
					set := make(map[int]bool)
					for _, w := range j.Workers {
						if !w.Flexible {
							set[w.Server] = true
						}
					}
					baseServers[id] = set
				}
			}
		}
		infos = append(infos, info)
	}
	return infos, baseServers
}

// cost returns the server preemption cost: the sum over base jobs of this
// server's fraction of the job's base servers (Table 1, last column). The
// shares are added in ascending job-ID order: float addition depends on
// order, and the cost is written into the reclaim.plan event stream.
func cost(info *serverInfo, baseServers map[int]map[int]bool) float64 {
	var buf [16]int
	ids := buf[:0]
	for id := range info.baseJobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c := 0.0
	for _, id := range ids {
		if n := len(baseServers[id]); n > 0 {
			c += 1 / float64(n)
		}
	}
	return c
}

// sideEffects returns what preempting this server's base jobs frees on
// *other* servers, split by whether those servers are themselves reclaim
// candidates: GPUs freed on other not-yet-taken on-loan candidates are
// reusable (those servers get cheaper, possibly free, to reclaim next),
// while GPUs freed anywhere else are the collateral damage of §4's
// tie-break.
func sideEffects(info *serverInfo, candidates map[int]bool, lookup func(id int) *job.Job) (reuse, damage int) {
	for id := range info.baseJobs {
		j := lookup(id)
		if j == nil {
			continue
		}
		for _, w := range j.Workers {
			switch {
			case w.Server == info.s.ID:
			case candidates[w.Server]:
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
func finishPlan(infos []*serverInfo, lookup func(id int) *job.Job) Plan {
	plan := Plan{ScaleIn: make(map[int][]int)}
	preempt := make(map[int]bool)
	for _, info := range infos {
		if !info.taken {
			continue
		}
		plan.Servers = append(plan.Servers, info.s.ID)
		for id := range info.baseJobs {
			preempt[id] = true
		}
	}
	for _, info := range infos {
		if !info.taken {
			continue
		}
		if len(info.baseJobs) == 0 {
			plan.FlexOnly++
		}
		for id := range info.flexJobs {
			if !preempt[id] {
				plan.ScaleIn[id] = append(plan.ScaleIn[id], info.s.ID)
			}
		}
	}
	for id := range preempt {
		plan.PreemptJobs = append(plan.PreemptJobs, id)
	}
	sort.Ints(plan.Servers)
	sort.Ints(plan.PreemptJobs)
	for id := range plan.ScaleIn {
		sort.Ints(plan.ScaleIn[id])
	}
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
	infos, baseServers := buildInfos(onLoan, lookup)
	var picks []Pick
	taken := 0
	// Phase one: zero-preemption servers, emptiest first so scale-ins are
	// minimized.
	free := make([]*serverInfo, 0, len(infos))
	for _, info := range infos {
		if len(info.baseJobs) == 0 {
			free = append(free, info)
		}
	}
	sort.Slice(free, func(i, k int) bool {
		ui, uk := free[i].s.Used(), free[k].s.Used()
		if ui != uk {
			return ui < uk
		}
		return free[i].s.ID < free[k].s.ID
	})
	for _, info := range free {
		if taken >= n {
			break
		}
		info.taken = true
		taken++
		picks = append(picks, Pick{Server: info.s.ID, Phase: 1})
	}
	// Phase two: greedy minimum-cost with cost updates.
	for taken < n {
		candidates := make(map[int]bool)
		for _, info := range infos {
			if !info.taken {
				candidates[info.s.ID] = true
			}
		}
		var best *serverInfo
		bestCost := math.Inf(1)
		bestReuse, bestDamage := -1, 0
		for _, info := range infos {
			if info.taken {
				continue
			}
			c := cost(info, baseServers)
			if c > bestCost+1e-12 {
				continue
			}
			reuse, damage := sideEffects(info, candidates, lookup)
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
		// Preempting best's jobs removes them everywhere: their cost
		// contributions vanish from all other servers.
		for id := range best.baseJobs {
			delete(baseServers, id)
			for _, info := range infos {
				if info != best {
					delete(info.baseJobs, id)
					delete(info.flexJobs, id)
				}
			}
		}
	}
	plan := finishPlan(infos, lookup)
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
	infos, _ := buildInfos(onLoan, lookup)
	idx := r.Rng.Perm(len(infos))
	for i := 0; i < n && i < len(idx); i++ {
		infos[idx[i]].taken = true
	}
	return finishPlan(infos, lookup)
}

// SCF reclaims the servers hosting the smallest number of jobs — the
// smallest-(job)-count-first baseline of §7.1.
type SCF struct{}

// Name implements Policy.
func (SCF) Name() string { return "scf" }

// Plan implements Policy.
func (SCF) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	infos, _ := buildInfos(onLoan, lookup)
	order := make([]*serverInfo, len(infos))
	copy(order, infos)
	sort.Slice(order, func(i, k int) bool {
		ci := len(order[i].baseJobs) + len(order[i].flexJobs)
		ck := len(order[k].baseJobs) + len(order[k].flexJobs)
		if ci != ck {
			return ci < ck
		}
		return order[i].s.ID < order[k].s.ID
	})
	for i := 0; i < n && i < len(order); i++ {
		order[i].taken = true
	}
	return finishPlan(infos, lookup)
}

// Optimal exhaustively searches all subsets of n on-loan servers for the
// one preempting the fewest jobs (ties: fewest vacated GPUs). It is
// exponential — §7.3 measures its running time at 420,000x Lyra's — and is
// provided for the optimality-gap comparison. Inputs beyond MaxServers
// servers return an empty plan.
type Optimal struct {
	// MaxServers bounds the search; 0 means 22.
	MaxServers int
}

// Name implements Policy.
func (Optimal) Name() string { return "optimal" }

// Plan implements Policy.
func (o Optimal) Plan(onLoan []*cluster.Server, lookup func(id int) *job.Job, n int) Plan {
	max := o.MaxServers
	if max == 0 {
		max = 22
	}
	if len(onLoan) > max {
		return Plan{ScaleIn: map[int][]int{}}
	}
	infos, _ := buildInfos(onLoan, lookup)
	if n > len(infos) {
		n = len(infos)
	}
	bestMask := -1
	bestPreempt, bestVacated := math.MaxInt32, math.MaxInt32
	var walk func(i, picked, mask int)
	walk = func(i, picked, mask int) {
		if picked == n {
			preempt := make(map[int]bool)
			for b, info := range infos {
				if mask&(1<<b) == 0 {
					continue
				}
				for id := range info.baseJobs {
					preempt[id] = true
				}
			}
			vacated := 0
			for id := range preempt {
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
		for b, info := range infos {
			if bestMask&(1<<b) != 0 {
				info.taken = true
			}
		}
	}
	return finishPlan(infos, lookup)
}

// CostOf exposes the server preemption cost for a single server given the
// full job lookup — used by tests reproducing Table 1 and by the
// experiments harness.
func CostOf(s *cluster.Server, lookup func(id int) *job.Job) float64 {
	infos, baseServers := buildInfos([]*cluster.Server{s}, lookup)
	return cost(infos[0], baseServers)
}
