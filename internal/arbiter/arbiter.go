// Package arbiter implements the global capacity arbitrator of the sharded
// topology: the component that sits where internal/orchestrator sits for a
// single cluster. It routes arriving jobs to training shards (least-loaded,
// deterministic lowest-ID tie-break) and brokers cross-shard GPU loans with
// an optimistic shared-state protocol — every borrowing shard's loan
// proposal is formed against a possibly-stale snapshot of the global free
// pool taken at epoch start, conflicts are detected at commit time when a
// proposed server was already granted to a lower-ID shard, and losers are
// retried against the live view a bounded number of times. The per-borrower
// decision and the reclaim/return verbs are internal/orchestrator's own
// (orchestrator.Loans), with servers leaving a borrower as shard-to-shard
// transfers through sim.Shards.Transfer instead of pool moves.
//
// A 1-training+1-inference topology reduces to the unsharded orchestrator
// decision-for-decision: one borrower means the stale snapshot is never
// stale, the per-shard cap equals the inference scheduler's target exactly,
// and the emitted event stream is byte-identical to Orchestrator.Epoch's.
package arbiter

import (
	"math"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// maxRetries bounds the conflict-retry rounds of one loan commit.
const maxRetries = 3

// Arbiter is the global capacity arbitrator. It embeds the orchestrator's
// loan protocol (policy, flags, and the per-borrower decide/reclaim/return
// verbs), so every borrowing shard decides exactly as the unsharded
// orchestrator does; what it adds is genuinely multi-shard: routing,
// headroom netting across inference shards and borrowers, the stale
// snapshot and the conflict-retry loan. Targets holds one
// inference-capacity targeter per inference shard (nil when loaning is
// disabled — Route still works).
type Arbiter struct {
	// Targets[m] is inference shard m's loan-target source (usually the
	// reactive inference.Scheduler, optionally wrapped in a Forecaster).
	Targets []orchestrator.LoanTargeter
	orchestrator.Loans
}

// New returns an arbiter over the given per-inference-shard targeters.
func New(targets []orchestrator.LoanTargeter, policy reclaim.Policy, less func(a, b *job.Job) bool) *Arbiter {
	return &Arbiter{Targets: targets, Loans: orchestrator.Loans{Policy: policy, Less: less}}
}

// Route implements sim.ShardArbiter: the arriving job goes to the
// least-loaded training shard, where load is the committed and queued GPU
// demand relative to the shard's own training capacity. Ties break to the
// lowest shard ID, so routing is deterministic for any arrival order. With
// one training shard there is nothing to weigh.
func (a *Arbiter) Route(sh *sim.Shards, j *job.Job) int {
	best := 0
	if sh.NumTrain > 1 {
		bestLoad := math.Inf(1)
		for n, st := range sh.Train() {
			tot := st.Cluster.TotalGPUs(cluster.PoolTraining)
			load := math.Inf(1)
			if tot > 0 {
				used := st.Cluster.UsedGPUs(cluster.PoolTraining) + st.Cluster.UsedGPUs(cluster.PoolOnLoan)
				queued := 0
				for _, p := range st.Pending {
					queued += p.BaseGPUs()
				}
				load = float64(used+queued) / float64(tot)
			}
			if load < bestLoad {
				best, bestLoad = n, load
			}
		}
	}
	if sh.Tagged && sh.Rec.Enabled() {
		sh.Rec.Emit(obs.JobEv(sh.States[best].Now, obs.KindArbRoute, j.ID).WithCause("route").WithF(obs.Fields{
			"shard": best,
		}))
		sh.Rec.Add("arb.routes", 1)
	}
	return best
}

// Epoch implements sim.ShardArbiter: one arbitration epoch over the
// sharded topology.
//
// The epoch has three parts. First the target pass reads each inference
// shard's loan target and nets it against the servers that shard already
// has out on loan, yielding the signed global headroom; it also snapshots
// the global free inference pool — the possibly-stale view every borrower
// will propose against. Then the assessment runs each training shard's
// read-only demand estimate (Loans.Assess) over purely local state. Finally
// the commit walks borrowing shards in ID order: each computes its capacity
// cap (its current loan plus what is left of the global headroom — for one
// borrower exactly the inference scheduler's target) and runs the shared
// per-borrower decision (Loans.Decide), with loans going through the
// optimistic proposal against the stale snapshot and reclaimed or idle
// servers transferred to their home shards. The servers a borrower took or
// gave back are netted off the headroom before the next one is served, so
// lower IDs are served first on both the loan and the reclaim side and the
// sum on loan never exceeds the sum of the targets (the cap of §4).
func (a *Arbiter) Epoch(sh *sim.Shards) {
	train := sh.Train()
	now := sh.States[0].Now

	// Target pass: signed headroom and the stale free-pool snapshot.
	headroom := 0
	loanedFrom := make([]int, len(sh.Inference()))
	for _, st := range train {
		st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
			loanedFrom[sh.Home(s.ID)-sh.NumTrain]++
			return true
		})
	}
	for m := range sh.Inference() {
		headroom += a.Targets[m].TargetOnLoan(int64(now)) - loanedFrom[m]
	}
	stale := a.freeInference(sh)

	// Assessment: per-shard busy and demand, read-only, no obs.
	busy := make([]int, len(train))
	demand := make([]int, len(train))
	for n, st := range train {
		busy[n], demand[n] = a.Assess(st)
	}

	// Commit in shard ID order, netting the headroom as it goes.
	for n, st := range train {
		cur := st.Cluster.PoolSize(cluster.PoolOnLoan)
		capSrv := cur + headroom
		if capSrv < 0 {
			capSrv = 0
		}
		b := orchestrator.Borrower{St: st, Shard: -1}
		if sh.Tagged {
			b.Shard = n
		}
		a.Decide(b, capSrv, busy[n], demand[n],
			func(k int) { a.loan(sh, n, k, stale) },
			func(sid int) { sh.Transfer(sid, sh.Home(sid), cluster.PoolInference) })
		headroom -= st.Cluster.PoolSize(cluster.PoolOnLoan) - cur
	}
}

// freeInference returns the global free inference pool — every server
// currently attached to an inference shard's inference pool — in ascending
// server ID order.
func (a *Arbiter) freeInference(sh *sim.Shards) []int {
	var ids []int
	for _, st := range sh.Inference() {
		st.Cluster.EachPoolServer(cluster.PoolInference, func(s *cluster.Server) bool {
			ids = append(ids, s.ID)
			return true
		})
	}
	sort.Ints(ids)
	return ids
}

// loan grants up to n servers to training shard `to` through the
// optimistic shared-state protocol: the proposal is formed against the
// stale epoch-start snapshot (lowest IDs first, the unsharded
// orchestrator's pick order), and each proposed server is validated at
// commit time against the live topology. A server that was granted to a
// lower-ID shard earlier this epoch fails validation, emits an
// arb.conflict event (cause loan-conflict-retry), and is replaced by
// re-proposing from the live view — bounded by maxRetries rounds, so a
// storm of shards proposing the same servers converges instead of
// livelocking.
func (a *Arbiter) loan(sh *sim.Shards, to, n int, stale []int) {
	if n <= 0 {
		return
	}
	st := sh.States[to]
	granted := make([]int, 0, n)
	proposal := stale
	for round := 0; ; round++ {
		for _, sid := range proposal {
			if len(granted) == n {
				break
			}
			home := sh.Home(sid)
			if sh.Owner(sid) == home && sh.States[home].Cluster.Server(sid).Pool == cluster.PoolInference {
				sh.Transfer(sid, to, cluster.PoolOnLoan)
				granted = append(granted, sid)
				continue
			}
			// Optimistic commit lost: the stale view promised this server,
			// a lower-ID shard (or an earlier round) took it.
			if sh.Tagged && sh.Rec.Enabled() {
				sh.Rec.Emit(obs.Ev(st.Now, obs.KindArbConflict).WithCause("loan-conflict-retry").WithF(obs.Fields{
					"server": sid, "shard": to, "round": round,
				}))
				sh.Rec.Add("arb.conflicts", 1)
			}
		}
		if len(granted) == n || round == maxRetries {
			break
		}
		// Retry from the live view, excluding what we already hold.
		live := a.freeInference(sh)
		if len(live) == 0 {
			break
		}
		proposal = live
	}
	if st.Obs.Enabled() && len(granted) > 0 {
		ev := obs.Ev(st.Now, obs.KindOrchLoan).WithF(obs.Fields{
			"servers": granted, "count": len(granted),
		})
		if sh.Tagged {
			ev = ev.WithCause("loan-grant").WithF(obs.Fields{
				"servers": granted, "count": len(granted), "shard": to,
			})
		}
		st.Obs.Emit(ev)
		st.Obs.Add("orch.loans", 1)
	}
}
