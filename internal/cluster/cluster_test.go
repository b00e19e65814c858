package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGPUTypeSpeedAndMemory(t *testing.T) {
	if V100.Speed() != 1.0 {
		t.Errorf("V100 speed = %v, want 1.0 (reference)", V100.Speed())
	}
	if s := T4.Speed(); s <= 0 || s >= 1 {
		t.Errorf("T4 speed = %v, want in (0,1): weaker than V100", s)
	}
	if A100.Speed() <= V100.Speed() {
		t.Errorf("A100 should be faster than V100")
	}
	if T4.MemGB() >= V100.MemGB() {
		t.Errorf("T4 mem %d should be smaller than V100 mem %d", T4.MemGB(), V100.MemGB())
	}
	if GPUType(200).Speed() != 0 || GPUType(200).MemGB() != 0 {
		t.Errorf("unknown GPU type should have zero speed and memory")
	}
}

func TestGPUTypeString(t *testing.T) {
	for g, want := range map[GPUType]string{V100: "V100", T4: "T4", A100: "A100"} {
		if got := g.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestPoolString(t *testing.T) {
	for p, want := range map[Pool]string{PoolTraining: "training", PoolOnLoan: "on-loan", PoolInference: "inference"} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestNewDefaultConfigScale(t *testing.T) {
	c := New(DefaultConfig())
	if got := c.TotalGPUs(PoolTraining); got != 3544 {
		t.Errorf("training GPUs = %d, want 3544 (paper scale)", got)
	}
	if got := c.TotalGPUs(PoolInference); got != 4160 {
		t.Errorf("inference GPUs = %d, want 4160 (paper scale)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A cluster costs one object per server — its holdings list waits for the
// first Allocate — plus a few dozen slices: the domain tables (every rack
// and zone member list is a window of one ID slab) and the index words, at
// the paper's scale and at ten times it.
func TestNewAllocatesOnePerServer(t *testing.T) {
	for _, scale := range []int{1, 10} {
		cfg := Config{TrainingServers: 443 * scale, InferenceServers: 520 * scale}
		c := New(cfg)
		bound := float64(c.NumServers() + 150)
		if a := testing.AllocsPerRun(3, func() { New(cfg) }); a > bound {
			t.Errorf("New(%d+%d servers): %.0f allocations, want at most %.0f (%d servers, %d racks, %d zones)",
				cfg.TrainingServers, cfg.InferenceServers, a, bound, c.NumServers(), c.NumRacks(), c.NumZones())
		}
	}
}

func TestTestbedConfigScale(t *testing.T) {
	c := New(TestbedConfig())
	if got := c.TotalGPUs(PoolTraining) + c.TotalGPUs(PoolInference); got != 64 {
		t.Errorf("testbed GPUs = %d, want 64", got)
	}
}

func TestServerAllocateRelease(t *testing.T) {
	s := NewServer(0, V100, 8, PoolTraining)
	if err := s.Allocate(1, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(2, 2, true); err != nil {
		t.Fatal(err)
	}
	if s.Free() != 2 || s.Used() != 6 {
		t.Errorf("free=%d used=%d, want 2/6", s.Free(), s.Used())
	}
	if s.JobGPUs(1) != 4 || s.JobGPUs(2) != 2 {
		t.Errorf("job GPU counts wrong: %d, %d", s.JobGPUs(1), s.JobGPUs(2))
	}
	if s.FlexibleGPUs(2) != 2 || s.TotalFlexible() != 2 {
		t.Errorf("flexible accounting wrong")
	}
	if err := s.Allocate(3, 3, false); err == nil {
		t.Error("over-allocation should fail")
	}
	if err := s.Release(1, 2); err != nil {
		t.Fatal(err)
	}
	if s.JobGPUs(1) != 2 || s.Free() != 4 {
		t.Errorf("partial release wrong: job1=%d free=%d", s.JobGPUs(1), s.Free())
	}
	if n := s.ReleaseJob(2); n != 2 {
		t.Errorf("ReleaseJob returned %d, want 2", n)
	}
	if s.TotalFlexible() != 0 {
		t.Errorf("flexible GPUs should be gone after full release")
	}
	if err := s.Release(1, 5); err == nil {
		t.Error("over-release should fail")
	}
}

func TestServerAllocateRejectsNonPositive(t *testing.T) {
	s := NewServer(0, V100, 8, PoolTraining)
	if err := s.Allocate(1, 0, false); err == nil {
		t.Error("zero-GPU allocation should fail")
	}
	if err := s.Allocate(1, -1, false); err == nil {
		t.Error("negative allocation should fail")
	}
}

func TestServerJobsSorted(t *testing.T) {
	s := NewServer(0, V100, 8, PoolTraining)
	for _, id := range []int{5, 1, 3} {
		if err := s.Allocate(id, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Jobs()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Jobs() = %v, want %v", got, want)
		}
	}
}

// Releasing nothing of a job the server does not host is a no-op; releasing
// GPUs it does not hold is an error that leaves the server as it was.
func TestReleaseOfAbsentJob(t *testing.T) {
	c := New(Config{TrainingServers: 1, InferenceServers: 0})
	s := c.Server(0)
	if err := s.Allocate(2, 3, true); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 3} { // before and after the one hosted job
		if err := s.Release(id, 0); err != nil {
			t.Errorf("Release(%d, 0) of an absent job: %v, want a no-op", id, err)
		}
		if err := s.Release(id, 1); err == nil {
			t.Errorf("Release(%d, 1) of an absent job succeeded, want an error", id)
		}
	}
	if got := s.Jobs(); len(got) != 1 || got[0] != 2 || s.Free() != 5 || s.TotalFlexible() != 3 {
		t.Errorf("server changed: jobs %v, free %d, flexible %d; want [2], 5, 3", got, s.Free(), s.TotalFlexible())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
}

// AuditIndexes must catch a flexible-server index out of step with the
// servers: a member left behind after its flexible GPUs are gone, and a
// server hosting flexible GPUs that the index lost.
func TestAuditIndexesCatchesStaleFlexibleEntry(t *testing.T) {
	c := New(Config{TrainingServers: 2, InferenceServers: 0})
	a, b := c.Server(0), c.Server(1)
	if err := a.Allocate(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
	// Stale: server 1 hosts no flexible GPUs but is filed as if it did.
	c.flexHosts[PoolTraining].add(b.ID)
	if err := c.AuditIndexes(); err == nil {
		t.Error("AuditIndexes missed a stale flexible-index entry")
	}
	c.flexHosts[PoolTraining].del(b.ID)
	// Stale after release: the write path's removal skipped.
	a.ReleaseJob(1)
	c.flexHosts[PoolTraining].add(a.ID)
	if err := c.AuditIndexes(); err == nil {
		t.Error("AuditIndexes missed an entry left after its flexible GPUs were released")
	}
	c.flexHosts[PoolTraining].del(a.ID)
	// Lost: a server hosting flexible GPUs missing from the index.
	if err := b.Allocate(2, 1, true); err != nil {
		t.Fatal(err)
	}
	c.flexHosts[PoolTraining].del(b.ID)
	if err := c.AuditIndexes(); err == nil {
		t.Error("AuditIndexes missed a server hosting flexible GPUs absent from the index")
	}
}

func TestFlexibleReleasedFirst(t *testing.T) {
	s := NewServer(0, T4, 8, PoolOnLoan)
	if err := s.Allocate(1, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(1, 4, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(1, 4); err != nil {
		t.Fatal(err)
	}
	if s.FlexibleGPUs(1) != 0 {
		t.Errorf("flexible GPUs should be released before base: still %d", s.FlexibleGPUs(1))
	}
	if s.JobGPUs(1) != 4 {
		t.Errorf("base GPUs should remain: got %d", s.JobGPUs(1))
	}
}

func TestMoveBetweenPools(t *testing.T) {
	c := New(Config{TrainingServers: 2, InferenceServers: 2})
	inf := c.PoolServers(PoolInference)[0]
	if err := c.Move(inf.ID, PoolOnLoan); err != nil {
		t.Fatal(err)
	}
	if c.PoolSize(PoolOnLoan) != 1 || c.PoolSize(PoolInference) != 1 {
		t.Errorf("pool sizes after loan: on-loan=%d inference=%d", c.PoolSize(PoolOnLoan), c.PoolSize(PoolInference))
	}
	if err := inf.Allocate(7, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(inf.ID, PoolInference); err == nil {
		t.Error("returning a busy server must fail")
	}
	inf.ReleaseJob(7)
	if err := c.Move(inf.ID, PoolInference); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveUnknownServer(t *testing.T) {
	c := New(Config{TrainingServers: 1, InferenceServers: 0})
	if err := c.Move(99, PoolOnLoan); err == nil {
		t.Error("moving unknown server should fail")
	}
	if err := c.Move(0, PoolTraining); err != nil {
		t.Errorf("no-op move should succeed: %v", err)
	}
}

func TestGPUAccounting(t *testing.T) {
	c := New(Config{TrainingServers: 2, InferenceServers: 1})
	s0 := c.PoolServers(PoolTraining)[0]
	if err := s0.Allocate(1, 5, false); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeGPUs(PoolTraining); got != 11 {
		t.Errorf("free training GPUs = %d, want 11", got)
	}
	if got := c.UsedGPUs(PoolTraining); got != 5 {
		t.Errorf("used training GPUs = %d, want 5", got)
	}
	if got := c.TotalGPUs(PoolTraining); got != 16 {
		t.Errorf("total training GPUs = %d, want 16", got)
	}
}

// TestPropertyAllocationConservation drives a random sequence of allocate/
// release/move operations and checks invariants after every step.
func TestPropertyAllocationConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{TrainingServers: 4, InferenceServers: 4})
		held := make(map[int]map[int]int) // job -> server -> gpus
		for op := 0; op < 200; op++ {
			s := c.Server(rng.Intn(c.NumServers()))
			jobID := rng.Intn(6)
			switch rng.Intn(3) {
			case 0: // allocate
				g := rng.Intn(4) + 1
				if g <= s.Free() && s.Pool != PoolInference {
					if err := s.Allocate(jobID, g, rng.Intn(2) == 0); err != nil {
						t.Logf("allocate: %v", err)
						return false
					}
					if held[jobID] == nil {
						held[jobID] = make(map[int]int)
					}
					held[jobID][s.ID] += g
				}
			case 1: // release all of a job on a server
				if n := s.ReleaseJob(jobID); n > 0 {
					if held[jobID][s.ID] != n {
						t.Logf("release mismatch: held %d, got %d", held[jobID][s.ID], n)
						return false
					}
					delete(held[jobID], s.ID)
				}
			case 2: // move an empty server between pools
				if s.Used() == 0 {
					var to Pool
					if s.GPU == T4 {
						to = []Pool{PoolOnLoan, PoolInference}[rng.Intn(2)]
					} else {
						to = PoolTraining
					}
					if err := c.Move(s.ID, to); err != nil {
						t.Logf("move: %v", err)
						return false
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if err := c.AuditIndexes(); err != nil {
				t.Logf("index audit: %v", err)
				return false
			}
		}
		// Total GPUs must be conserved across all pools.
		total := c.TotalGPUs(PoolTraining) + c.TotalGPUs(PoolOnLoan) + c.TotalGPUs(PoolInference)
		return total == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
