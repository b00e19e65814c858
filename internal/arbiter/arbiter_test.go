package arbiter

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
)

// fixedTarget is a LoanTargeter returning a constant per-shard loan cap.
type fixedTarget int

func (f fixedTarget) TargetOnLoan(int64) int { return int(f) }

func lessByID(a, b *job.Job) bool { return a.ID < b.ID }

// storm builds a 2-training + 2-inference sharded topology (2 servers per
// training shard, 3 per inference shard, contiguous global IDs 0..9), gives
// BOTH training shards the same heavy fungible backlog so they bid in the
// same arbitration epoch, and returns the shards plus the event buffer.
func storm(t *testing.T, target int) (*sim.Shards, *Arbiter, *obs.Buffer) {
	t.Helper()
	newC := func(train, inf, firstID, shard int) *cluster.Cluster {
		return cluster.New(cluster.Config{
			TrainingServers: train, InferenceServers: inf,
			TrainingGPU: cluster.V100, InferenceGPU: cluster.T4,
			FirstID: firstID, Shard: shard,
		})
	}
	buf := &obs.Buffer{}
	rec := obs.NewRecorder(buf)
	sh := sim.NewShards(sim.ShardedConfig{
		Train:  []*cluster.Cluster{newC(2, 0, 0, 0), newC(2, 0, 2, 1)},
		Inf:    []*cluster.Cluster{newC(0, 3, 4, 2), newC(0, 3, 7, 3)},
		Scheds: []sim.Scheduler{&sched.FIFO{}, &sched.FIFO{}},
	}, sim.Config{Obs: rec})
	// 10 pending fungible 4-GPU jobs per training shard: 40 GPUs of demand
	// against 16 free, a shortfall far beyond any target, so every shard
	// wants its full per-shard cap.
	for n, st := range sh.Train() {
		for i := 0; i < 10; i++ {
			j := job.New(100*n+i, 0, job.Generic, 4, 1, 1, 1000)
			j.Fungible = true
			st.Enqueue(j, lessByID)
		}
	}
	a := New(
		[]orchestrator.LoanTargeter{fixedTarget(target), fixedTarget(target)},
		reclaim.Lyra{}, lessByID,
	)
	return sh, a, buf
}

// audit verifies cross-shard GPU conservation and ownership consistency
// after an arbitration epoch: 10 servers and 80 GPUs exist globally, every
// server is attached to exactly the shard the ownership index names, and no
// server appears in two shards.
func auditShards(t *testing.T, sh *sim.Shards) {
	t.Helper()
	gpus, servers := 0, 0
	seen := make(map[int]int)
	for i, st := range sh.States {
		servers += st.Cluster.NumServers()
		st.Cluster.EachServer(func(s *cluster.Server) bool {
			gpus += s.NumGPUs
			if prev, dup := seen[s.ID]; dup {
				t.Fatalf("server %d attached to both shard %d and shard %d", s.ID, prev, i)
			}
			seen[s.ID] = i
			if sh.Owner(s.ID) != i {
				t.Fatalf("server %d attached to shard %d but owner index says %d", s.ID, i, sh.Owner(s.ID))
			}
			return true
		})
		if err := st.Cluster.CheckInvariants(); err != nil {
			t.Fatalf("shard %d cluster invariants: %v", i, err)
		}
	}
	if servers != 10 || gpus != 80 {
		t.Fatalf("conservation violated: %d servers / %d GPUs, want 10 / 80", servers, gpus)
	}
}

func countKind(evs []obs.Event, kind obs.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestConflictStormTotalOverlap: both shards' caps cover the ENTIRE global
// free pool, so shard 0's commit consumes every server shard 1 proposed.
// Shard 1 must conflict on all six, retry against the live view, find it
// empty, and converge empty-handed — with conservation intact.
func TestConflictStormTotalOverlap(t *testing.T) {
	sh, a, buf := storm(t, 3) // headroom 6 = the whole free pool
	a.Epoch(sh)
	auditShards(t, sh)

	if got := sh.Train()[0].Cluster.PoolSize(cluster.PoolOnLoan); got != 6 {
		t.Errorf("shard 0 on-loan = %d, want all 6", got)
	}
	if got := sh.Train()[1].Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("shard 1 on-loan = %d, want 0 after losing every conflict", got)
	}
	evs := buf.Drain()
	if got := countKind(evs, obs.KindArbConflict); got != 6 {
		t.Errorf("arb.conflict events = %d, want 6 (one per stale proposal entry)", got)
	}
	for _, ev := range evs {
		if ev.Kind == obs.KindArbConflict && ev.Cause != "loan-conflict-retry" {
			t.Errorf("arb.conflict cause = %q, want loan-conflict-retry", ev.Cause)
		}
	}
	if got := countKind(evs, obs.KindOrchLoan); got != 1 {
		t.Errorf("orch.loan events = %d, want 1 (only shard 0 granted)", got)
	}
}

// TestConflictStormRetryGrants: partial overlap — each shard's cap is 4, so
// shard 0 takes servers 4-7, shard 1 conflicts on those four stale entries,
// and its live-view retry must still pick up the remaining servers 8-9.
func TestConflictStormRetryGrants(t *testing.T) {
	sh, a, buf := storm(t, 2) // headroom 4 of 6 free servers
	a.Epoch(sh)
	auditShards(t, sh)

	if got := sh.Train()[0].Cluster.PoolSize(cluster.PoolOnLoan); got != 4 {
		t.Errorf("shard 0 on-loan = %d, want 4", got)
	}
	if got := sh.Train()[1].Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
		t.Errorf("shard 1 on-loan = %d, want 2 recovered by the retry", got)
	}
	for _, sid := range []int{8, 9} {
		if sh.Owner(sid) != 1 {
			t.Errorf("server %d owner = %d, want shard 1", sid, sh.Owner(sid))
		}
	}
	evs := buf.Drain()
	if got := countKind(evs, obs.KindArbConflict); got != 4 {
		t.Errorf("arb.conflict events = %d, want 4", got)
	}
	if got := countKind(evs, obs.KindOrchLoan); got != 2 {
		t.Errorf("orch.loan events = %d, want one grant per shard", got)
	}
}

// TestRouteLeastLoaded: routing is deterministic least-loaded with a
// lowest-ID tie-break, counting both committed and queued GPUs.
func TestRouteLeastLoaded(t *testing.T) {
	sh, a, _ := storm(t, 0)
	// Equal backlogs: the tie must break to shard 0.
	j := job.New(500, 0, job.Generic, 1, 1, 1, 100)
	if got := a.Route(sh, j); got != 0 {
		t.Errorf("tie-break routed to shard %d, want 0", got)
	}
	// Lighten shard 1's queue: it must win the next routing decision.
	st1 := sh.Train()[1]
	st1.Pending = st1.Pending[:2]
	if got := a.Route(sh, j); got != 1 {
		t.Errorf("least-loaded routed to shard %d, want 1", got)
	}
}

// TestReturnRoutesHome: a voluntarily returned server must land in its HOME
// inference shard's pool, not the lender of the moment's.
func TestReturnRoutesHome(t *testing.T) {
	sh, a, _ := storm(t, 3)
	a.Epoch(sh)
	// Shard 0 holds all six loaned servers (4-9); drop its demand so the
	// next epoch returns the idle loans.
	sh.Train()[0].Pending = nil
	sh.Train()[1].Pending = nil
	a.Epoch(sh)
	auditShards(t, sh)
	for sid := 4; sid <= 6; sid++ {
		if sh.Owner(sid) != 2 {
			t.Errorf("server %d owner = %d, want home inference shard 2", sid, sh.Owner(sid))
		}
	}
	for sid := 7; sid <= 9; sid++ {
		if sh.Owner(sid) != 3 {
			t.Errorf("server %d owner = %d, want home inference shard 3", sid, sh.Owner(sid))
		}
	}
}
