// Package arbiter implements the global capacity arbitrator of the sharded
// topology: the component that sits where internal/orchestrator sits for a
// single cluster. It routes arriving jobs to training shards (least-loaded,
// deterministic lowest-ID tie-break) and brokers cross-shard GPU loans by
// serving the borrowing shards one after another, in shard-ID order, from
// the live inference pools. The per-borrower decision and the
// lend/reclaim/return verbs are internal/orchestrator's own
// (orchestrator.Loans), with servers crossing between shards as transfers
// through sim.Shards.Transfer instead of pool moves.
//
// A 1-training+1-inference topology reduces to the unsharded orchestrator
// decision-for-decision: the one borrower's cap equals the inference
// scheduler's target exactly, the servers lent are the same lowest IDs, and
// the emitted event stream is byte-identical to Orchestrator.Epoch's.
package arbiter

import (
	"math"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// Arbiter is the global capacity arbitrator. It embeds the orchestrator's
// loan protocol (policy, flags, and the per-borrower decide/reclaim/return
// verbs), so every borrowing shard decides exactly as the unsharded
// orchestrator does; what it adds is genuinely multi-shard: routing, and
// headroom netting across inference shards and borrowers. Targets holds one
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
	if rec := sh.States[best].Obs; sh.Tagged && rec.Enabled() {
		rec.Emit(obs.JobEv(sh.States[best].Now, obs.KindArbRoute, j.ID).WithCause("route").WithF(obs.Fields{
			"shard": best,
		}))
	}
	return best
}

// Epoch implements sim.ShardArbiter: one arbitration epoch over the
// sharded topology.
//
// The target pass reads each inference shard's loan target and nets it
// against the servers that shard already has out on loan, yielding the
// signed global headroom. Then one pass serves the training shards in ID
// order: each gets its capacity cap (its current loan plus what is left of
// the headroom — for one borrower exactly the inference scheduler's target)
// and runs the shared per-borrower decision (Loans.Decide) against the live
// inference pools, with every server crossing as a shard-to-shard transfer.
// What a borrower took or gave back is netted off the headroom before the
// next one is served, so lower IDs are served first on both the loan and
// the reclaim side, a server one shard returns is lendable to the next in
// the same epoch, and the sum on loan never exceeds the sum of the targets
// (the cap of §4).
func (a *Arbiter) Epoch(sh *sim.Shards) {
	train := sh.Train()
	now := sh.States[0].Now

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
		a.Decide(b, capSrv, sh.Inference(),
			func(sid int) { sh.Transfer(sid, n, cluster.PoolOnLoan) },
			func(sid int) { sh.Transfer(sid, sh.Home(sid), cluster.PoolInference) })
		headroom -= st.Cluster.PoolSize(cluster.PoolOnLoan) - cur
	}
}
