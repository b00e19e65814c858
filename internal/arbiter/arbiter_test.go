package arbiter

import (
	"reflect"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// fixedTarget is a LoanTargeter returning a constant per-shard loan cap.
type fixedTarget int

func (f fixedTarget) TargetOnLoan(int64) int { return int(f) }

func lessByID(a, b *job.Job) bool { return a.ID < b.ID }

// storm builds a 2-training + 2-inference sharded topology (2 servers per
// training shard, 3 per inference shard, contiguous global IDs 0..9), gives
// BOTH training shards the same heavy fungible backlog so they bid in the
// same arbitration epoch, and returns the shards plus the event ring.
func storm(t *testing.T, target int) (*sim.Shards, *Arbiter, *obs.Ring) {
	t.Helper()
	ring := obs.NewRing(256)
	sh := topology(2, 2, sim.Config{Obs: obs.NewRecorder(ring)})
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
	return sh, a, ring
}

// auditShards verifies cross-shard GPU conservation and ownership
// consistency after an arbitration epoch: the given number of 8-GPU servers
// exists globally, every server is attached to exactly the shard the
// ownership index names, no server appears in two shards, and the pool a
// server sits in agrees with its home — at home unless on loan, and on loan
// only from an inference shard to a training shard.
func auditShards(t *testing.T, sh *sim.Shards, want int) {
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
			home := sh.Home(s.ID)
			if lent := s.Pool == cluster.PoolOnLoan; lent != (home != i) || lent && (i >= sh.NumTrain || home < sh.NumTrain) {
				t.Fatalf("server %d (home shard %d) sits in shard %d's %v pool", s.ID, home, i, s.Pool)
			}
			return true
		})
		if err := st.Cluster.CheckInvariants(); err != nil {
			t.Fatalf("shard %d cluster invariants: %v", i, err)
		}
	}
	if servers != want || gpus != 8*want {
		t.Fatalf("conservation violated: %d servers / %d GPUs, want %d / %d", servers, gpus, want, 8*want)
	}
}

// grant is one orch.loan event of a tagged stream: who was served, and with
// which servers.
type grant struct {
	shard   int
	servers []int
}

// grants returns the stream's loan grants in emission order, checking that
// each carries the sharded stream's loan-grant cause.
func grants(t *testing.T, evs []obs.Event) []grant {
	t.Helper()
	var out []grant
	for _, ev := range evs {
		if ev.Kind != obs.KindOrchLoan {
			continue
		}
		if ev.Cause != "loan-grant" {
			t.Errorf("orch.loan cause = %q, want loan-grant", ev.Cause)
		}
		out = append(out, grant{ev.F["shard"].(int), ev.F["servers"].([]int)})
	}
	return out
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

// onLoan returns how many servers each training shard holds on loan.
func onLoan(sh *sim.Shards) []int {
	var out []int
	for _, st := range sh.Train() {
		out = append(out, st.Cluster.PoolSize(cluster.PoolOnLoan))
	}
	return out
}

// TestEpochHonoursGlobalLoanCap: the inference targets cap the sum on loan
// over all borrowers (the cap of §4), on the loan side and on the reclaim
// side. Offering every borrower the whole epoch-start headroom lends 6
// against targets 2+2, and reclaims 2 from each shard when the targets drop
// by 2 in total.
func TestEpochHonoursGlobalLoanCap(t *testing.T) {
	t.Run("loan", func(t *testing.T) {
		sh, a, _ := storm(t, 2) // two hungry borrowers, targets 2+2
		a.Epoch(sh)
		auditShards(t, sh, 10)
		if got := onLoan(sh); got[0]+got[1] != 4 {
			t.Errorf("on loan = %v, want 4 in total (the sum of the targets)", got)
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		sh, a, _ := storm(t, 3)
		// A 7-job backlog is 12 GPUs beyond shard 0's own 16: three loaned
		// servers at the T4 rate, leaving three for shard 1.
		sh.Train()[0].Pending = sh.Train()[0].Pending[:7]
		a.Epoch(sh)
		if got := onLoan(sh); got[0] != 3 || got[1] != 3 {
			t.Fatalf("on loan = %v, want a 3+3 split", got)
		}
		// Put the backlog to work, so every loaned server is busy and only a
		// lowered target can take one away.
		for n, st := range sh.Train() {
			sh.Scheds[n].Schedule(st)
		}
		a.Targets = []orchestrator.LoanTargeter{fixedTarget(2), fixedTarget(2)}
		a.Epoch(sh)
		auditShards(t, sh, 10)
		if got := onLoan(sh); got[0] != 1 || got[1] != 3 {
			t.Errorf("on loan = %v, want [1 3]: the two servers owed come from the lowest-ID borrower", got)
		}
		if got := sh.Train()[0].ReclaimedSrv + sh.Train()[1].ReclaimedSrv; got != 2 {
			t.Errorf("reclaimed %d servers, want exactly the 2 the targets dropped by", got)
		}
	})
}

// TestConflictStormTotalOverlap: two contended borrowers served in one epoch
// get pairwise-disjoint, ascending grants, each the lowest IDs free when its
// shard was served. Shard 0's three-server loan takes 4, 5, 6 — exactly the
// servers shard 1 would have been lent had it gone first — so shard 1 takes
// 7, 8, 9, with conservation intact and the sum on loan equal to the sum of
// the targets.
func TestConflictStormTotalOverlap(t *testing.T) {
	sh, a, ring := storm(t, 3) // headroom 6 = the whole free pool
	// Seven jobs are three loaned servers' worth of backlog.
	sh.Train()[0].Pending = sh.Train()[0].Pending[:7]
	a.Epoch(sh)
	auditShards(t, sh, 10)

	if got := onLoan(sh); got[0] != 3 || got[1] != 3 {
		t.Errorf("on loan = %v, want [3 3]", got)
	}
	for sid := 4; sid <= 9; sid++ {
		if want := (sid - 4) / 3; sh.Owner(sid) != want {
			t.Errorf("server %d owner = %d, want shard %d", sid, sh.Owner(sid), want)
		}
	}
	want := []grant{{0, []int{4, 5, 6}}, {1, []int{7, 8, 9}}}
	if got := grants(t, ring.Tail(0)); !reflect.DeepEqual(got, want) {
		t.Errorf("grants = %v, want %v", got, want)
	}
}

// TestConflictStormRetryGrants: the pools are read live. Shard 0 borrows the
// whole free pool, then loses its demand; in the next epoch its idle return
// raises the headroom ahead of shard 1, and the six servers it handed back —
// none of which was free when the epoch began — are lent to shard 1 in the
// same epoch.
func TestConflictStormRetryGrants(t *testing.T) {
	sh, a, ring := storm(t, 3)
	a.Epoch(sh)
	if got := onLoan(sh); got[0] != 6 || got[1] != 0 {
		t.Fatalf("on loan = %v, want shard 0 holding all 6", got)
	}
	sh.Train()[0].Pending = nil
	a.Epoch(sh)
	auditShards(t, sh, 10)

	if got := onLoan(sh); got[0] != 0 || got[1] != 6 {
		t.Errorf("on loan = %v, want [0 6] after the return and the loan", got)
	}
	for sid := 4; sid <= 9; sid++ {
		if sh.Owner(sid) != 1 {
			t.Errorf("server %d owner = %d, want shard 1", sid, sh.Owner(sid))
		}
	}
	evs := ring.Tail(0)
	if got := countKind(evs, obs.KindOrchReturn); got != 1 {
		t.Errorf("orch.return events = %d, want 1", got)
	}
	all := []int{4, 5, 6, 7, 8, 9}
	want := []grant{{0, all}, {1, all}}
	if got := grants(t, evs); !reflect.DeepEqual(got, want) {
		t.Errorf("grants = %v, want one per epoch: %v", got, want)
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
	auditShards(t, sh, 10)
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
