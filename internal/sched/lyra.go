package sched

import (
	"lyra/internal/alloc"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/place"
	"lyra/internal/sim"
)

// Lyra is the paper's job scheduler (§5): phase 1 starts as many jobs as
// possible in SJF order (inelastic jobs and elastic bases), phase 2 grows
// elastic jobs with the remaining capacity by solving a multiple-choice
// knapsack over JCT reductions, and placement follows best-fit-decreasing
// with the pool preferences of §5.3.
type Lyra struct {
	// Elastic enables phase 2; §7.3's loaning-only rows disable it.
	Elastic bool
	// NaivePlacement disables the special treatment of elastic jobs
	// (grouping flexible demand on on-loan servers) for the Table 6
	// ablation.
	NaivePlacement bool
	// Tuned marks elastic jobs as hyperparameter-tuned on start
	// (Lyra+TunedJobs, §7.4): the job agent re-tunes batch size and
	// learning rate whenever the allocation changes, modeled as a
	// throughput bonus on scaled jobs via ScalingModel.TunedGain.
	Tuned bool
	// Opportunistic switches the pool rule to the Opportunistic
	// comparison scheme (§7.1) — only meaningful with Elastic=false.
	Opportunistic bool
	// InfoAgnostic replaces SJF with least-attained-service ordering
	// (Tiresias-style), needing no running-time estimates — the
	// information-agnostic scheduling §10 poses as future work. Jobs with
	// the least GPU-time attained so far go first; fresh jobs therefore
	// start promptly and long-running preempted jobs with checkpoints
	// keep their place by attained service.
	InfoAgnostic bool
	// Tuning carries the MCKP knobs (stability bonus, item granularity);
	// the zero value selects the allocator defaults. Per-scheduler rather
	// than package-global so concurrent simulations can sweep them
	// independently.
	Tuning alloc.Tuning

	// ws is the phase-2 MCKP's reused scratch (see alloc.Workspace:
	// memoized throughput tables, solver rows, group buffers; decisions
	// are bit-identical to a fresh one), and sc the placement buffers.
	// The targets alloc.Phase2 returns live in ws, valid until the next
	// call on this Workspace: phase2 applies them before it returns.
	// Both are per-instance — scheduler factories build a fresh instance
	// per run and per shard, so concurrent simulations stay independent.
	ws alloc.Workspace
	sc scratch
}

// NewLyra returns the full Lyra scheduler (elastic scaling on).
func NewLyra() *Lyra { return &Lyra{Elastic: true} }

// Memoryless implements sim.MemorylessScheduler: Schedule is a pure
// function of the state (the phase-2 workspace is scratch, not memory).
func (l *Lyra) Memoryless() bool { return true }

// Less implements sim.Scheduler: SJF over estimated runtime, or
// least-attained-service when running information-agnostic.
func (l *Lyra) Less(a, b *job.Job) bool {
	if l.InfoAgnostic {
		return lessByAttained(a, b)
	}
	return lessByEstimate(a, b)
}

// Schedule implements sim.Scheduler.
func (l *Lyra) Schedule(st *sim.State) {
	rule := place.SchemeRule(l.Opportunistic)
	sp := st.Prof.Start("phase1")
	l.sc.startBase(st, rule, false)
	sp.End()
	sp = st.Prof.Start("phase1.hetero")
	l.sc.startBase(st, rule, true)
	sp.End()
	if l.Tuned {
		for _, j := range l.sc.started {
			if j.Elastic {
				j.Tuned = true
			}
		}
	}
	if l.Elastic {
		sp = st.Prof.Start("phase2")
		l.phase2(st)
		sp.End()
	}
}

// phase2 resizes elastic jobs: the available capacity is the idle GPUs plus
// every GPU currently held by flexible workers (§5.2: "idle GPUs and GPUs
// being used by flexible workers for resizing"), and the MCKP picks the
// extra-worker allocation maximizing total JCT reduction.
func (l *Lyra) phase2(st *sim.State) {
	// ElasticOrdered iterates in ID order: the candidate order is the MCKP
	// group order, and map order would make tie-breaks (and thus results)
	// vary run to run. Both the candidate set and the flexible-GPU count
	// are maintained views — no per-epoch rescan of the running set.
	cands := st.ElasticOrdered()
	if len(cands) == 0 {
		return
	}
	flexGPUs := st.FlexNominalGPUs()
	freeT, freeL := st.FreeSchedulableGPUs()
	capacity := freeT + freeL + flexGPUs
	sp := st.Prof.Start("phase2.mckp")
	targets := alloc.Phase2(cands, capacity, st.Scaling, l.Tuning, &l.ws)
	sp.End()
	if st.Obs.Enabled() {
		tf := make([]obs.Fields, 0, len(targets))
		for _, e := range targets {
			tf = append(tf, obs.Fields{"job": e.ID, "extra": e.Extra})
		}
		st.Obs.Emit(obs.Ev(st.Now, obs.KindSchedPhase2).WithF(obs.Fields{
			"capacity": capacity, "free_train": freeT, "free_loan": freeL,
			"flex_gpus": flexGPUs, "candidates": len(cands), "targets": tf,
		}))
	}
	sp = st.Prof.Start("phase2.apply")
	l.sc.applyExtraTargets(st, cands, targets, l.NaivePlacement, "phase2")
	sp.End()
}
