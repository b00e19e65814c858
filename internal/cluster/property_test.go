package cluster_test

// Randomized equivalence test for the maintain-on-write cluster core: a
// naive reference model (recount + sort on every read) is driven with the
// same random Allocate/Release/ReleaseJob/Move/crash sequence as the
// indexed implementation, and every read — pool membership, all capacity
// counters, fragmentation, busy-server counts, normalized capacity, the
// servers hosting flexible GPUs, every server's ID-ordered job list and
// per-job GPUs, and the best-fit choice under random constraints — must
// agree at every step.
// The cluster mixes 8-GPU and 4-GPU servers, so an empty small server and a
// half-used large one hold the same free count: best-fit must still prefer
// the one hosting work, which is what the hosting/idle split of the index
// is for.
// AuditIndexes and CheckInvariants run after each operation too, so the
// test also exercises the audit layer's recount against states no
// scheduler would naturally produce.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	. "lyra/internal/cluster"
)

// refServer is the reference model's view of one server: just the raw
// allocation maps, no cached counters.
type refServer struct {
	id, numGPUs int
	gpu         GPUType
	pool        Pool
	alloc       map[int]int
	flex        map[int]int
}

func (r *refServer) free() int {
	used := 0
	for _, g := range r.alloc {
		used += g
	}
	return r.numGPUs - used
}

func (r *refServer) used() int { return r.numGPUs - r.free() }

func (r *refServer) flexTotal() int {
	t := 0
	for _, g := range r.flex {
		t += g
	}
	return t
}

// refModel recomputes every read from scratch over a plain server list.
// nextJob is the lowest job ID not yet issued.
type refModel struct {
	servers []*refServer
	nextJob int
}

// flexIDs lists pool p's servers hosting flexible GPUs, ascending.
func (m *refModel) flexIDs(p Pool) []int {
	var ids []int
	for _, id := range m.poolIDs(p) {
		if m.servers[id].flexTotal() > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

func (m *refModel) poolIDs(p Pool) []int {
	var ids []int
	for _, s := range m.servers {
		if s.pool == p {
			ids = append(ids, s.id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (m *refModel) counts(p Pool) (free, used, total, flex, empty int) {
	for _, s := range m.servers {
		if s.pool != p {
			continue
		}
		f := s.free()
		free += f
		used += s.used()
		total += s.numGPUs
		flex += s.flexTotal()
		if s.used() == 0 {
			empty++
		}
	}
	return
}

// bestFit is the reference placement: a full scan in ID order applying the
// placement preference (non-empty first, then least free, then lowest ID),
// exactly as place.bestFit did before the bucket index existed.
func (m *refModel) bestFit(p Pool, need func(GPUType) int, fixed *GPUType, exclude []int) int {
	best := -1
	var bestFree, bestUsed int
	for _, s := range m.servers {
		if s.pool != p {
			continue
		}
		if fixed != nil && s.gpu != *fixed {
			continue
		}
		n := need(s.gpu)
		if n < 1 {
			n = 1
		}
		if s.free() < n {
			continue
		}
		if slices.Contains(exclude, s.id) {
			continue
		}
		better := false
		switch {
		case best < 0:
			better = true
		case (s.used() == 0) != (bestUsed == 0):
			better = bestUsed == 0
		case s.free() != bestFree:
			better = s.free() < bestFree
		default:
			better = s.id < best
		}
		if better {
			best, bestFree, bestUsed = s.id, s.free(), s.used()
		}
	}
	return best
}

// apply mirrors one operation onto the model; ok says whether the indexed
// cluster accepted it.
func (m *refModel) move(id int, to Pool) error {
	s := m.servers[id]
	if s.pool == to {
		return nil
	}
	if (to == PoolInference || to == PoolQuarantine) && s.used() > 0 {
		return fmt.Errorf("busy")
	}
	s.pool = to
	return nil
}

func buildPair(t *testing.T, cfg Config) (*Cluster, *refModel) {
	c := New(cfg)
	// 4-GPU servers take over two low IDs per side, so that an empty small
	// server sorts before the 8-GPU servers it ties with at 4 free GPUs, and
	// two IDs past the home range, where the indexes must grow to take them.
	nT, n := cfg.TrainingServers, cfg.TrainingServers+cfg.InferenceServers
	for _, a := range []struct {
		id   int
		pool Pool
		gpu  GPUType
	}{
		{0, PoolTraining, V100}, {2, PoolTraining, V100}, {n, PoolTraining, V100},
		{nT, PoolOnLoan, T4}, {nT + 1, PoolOnLoan, T4}, {n + 1, PoolOnLoan, T4},
	} {
		if a.id < n {
			if _, err := c.Detach(a.id); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Adopt(NewServer(a.id, a.gpu, 4, a.pool), a.pool); err != nil {
			t.Fatal(err)
		}
	}
	m := &refModel{}
	for _, s := range c.Servers() {
		m.servers = append(m.servers, &refServer{
			id: s.ID, numGPUs: s.NumGPUs, gpu: s.GPU, pool: s.Pool,
			alloc: map[int]int{}, flex: map[int]int{},
		})
	}
	return c, m
}

// compare checks every read the schedulers perform.
func compare(t *testing.T, step int, c *Cluster, m *refModel) {
	t.Helper()
	for p := Pool(0); p < Pool(4); p++ {
		wantIDs := m.poolIDs(p)
		got := c.PoolServers(p)
		if len(got) != len(wantIDs) {
			t.Fatalf("step %d pool %v: %d servers, want %d", step, p, len(got), len(wantIDs))
		}
		for i, s := range got {
			if s.ID != wantIDs[i] {
				t.Fatalf("step %d pool %v: member[%d] = %d, want %d", step, p, i, s.ID, wantIDs[i])
			}
		}
		free, used, total, flex, empty := m.counts(p)
		if c.FreeGPUs(p) != free || c.UsedGPUs(p) != used || c.TotalGPUs(p) != total || c.FlexibleGPUs(p) != flex {
			t.Fatalf("step %d pool %v: counters free/used/total/flex = %d/%d/%d/%d, want %d/%d/%d/%d",
				step, p, c.FreeGPUs(p), c.UsedGPUs(p), c.TotalGPUs(p), c.FlexibleGPUs(p), free, used, total, flex)
		}
		if c.BusyServers(p) != len(wantIDs)-empty {
			t.Fatalf("step %d pool %v: busy = %d, want %d", step, p, c.BusyServers(p), len(wantIDs)-empty)
		}
		var flexIDs []int
		c.EachFlexibleServer(p, func(s *Server) bool { flexIDs = append(flexIDs, s.ID); return true })
		if want := m.flexIDs(p); !slices.Equal(flexIDs, want) {
			t.Fatalf("step %d pool %v: EachFlexibleServer visits %v, want %v", step, p, flexIDs, want)
		}
	}
	// Every server's holdings, for every job ever issued and one never
	// issued: the ID-ordered job list, and GPUs and flexible GPUs per job.
	for _, r := range m.servers {
		s := c.Server(r.id)
		want := make([]int, 0, len(r.alloc))
		for id := range r.alloc {
			want = append(want, id)
		}
		sort.Ints(want)
		if got := s.Jobs(); !slices.Equal(got, want) {
			t.Fatalf("step %d server %d: Jobs() = %v, want %v", step, r.id, got, want)
		}
		for id := 0; id <= m.nextJob; id++ {
			if s.JobGPUs(id) != r.alloc[id] || s.FlexibleGPUs(id) != r.flex[id] {
				t.Fatalf("step %d server %d job %d: GPUs/flexible = %d/%d, want %d/%d",
					step, r.id, id, s.JobGPUs(id), s.FlexibleGPUs(id), r.alloc[id], r.flex[id])
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if err := c.AuditIndexes(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// compareBestFit probes placement decisions under random constraints.
func compareBestFit(t *testing.T, step int, rng *rand.Rand, c *Cluster, m *refModel) {
	t.Helper()
	for trial := 0; trial < 4; trial++ {
		p := Pool(rng.Intn(2)) // training or on-loan, the schedulable pools
		base := 1 + rng.Intn(8)
		need := func(g GPUType) int {
			if g == T4 {
				return base * 2 // the memory-doubling shape of place.WorkerGPUs
			}
			return base
		}
		var fixed *GPUType
		if rng.Intn(2) == 0 {
			g := GPUType(rng.Intn(2)) // V100 or T4
			fixed = &g
		}
		var exclude []int
		for i := rng.Intn(4); i > 0; i-- {
			exclude = append(exclude, rng.Intn(len(m.servers)))
		}
		if trial >= 2 {
			// Aim the filters at the idle side: shut out the pool's first
			// few empty servers, the ones an idle walk reaches first.
			k := 1 + rng.Intn(3)
			for _, s := range m.servers {
				if k > 0 && s.pool == p && s.used() == 0 {
					exclude = append(exclude, s.id)
					k--
				}
			}
		}
		got := c.BestFit(p, need, fixed, exclude)
		want := m.bestFit(p, need, fixed, exclude)
		gotID := -1
		if got != nil {
			gotID = got.ID
		}
		if gotID != want {
			t.Fatalf("step %d: BestFit(pool=%v base=%d fixed=%v excl=%d) = %d, want %d",
				step, p, base, fixed, len(exclude), gotID, want)
		}
	}
}

func TestIndexedClusterMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{TrainingServers: 6, InferenceServers: 6, GPUsPerServer: 8}
			c, m := buildPair(t, cfg)
			m.nextJob = 1
			for step := 0; step < 600; step++ {
				id := rng.Intn(len(m.servers))
				s, r := c.Server(id), m.servers[id]
				switch op := rng.Intn(10); {
				case op < 4: // allocate
					jid := m.nextJob
					if rng.Intn(3) == 0 && len(r.alloc) > 0 {
						jid = anyKey(rng, r.alloc) // grow an existing allocation
					} else {
						m.nextJob++
					}
					gpus := 1 + rng.Intn(5)
					flexible := rng.Intn(3) == 0
					err := s.Allocate(jid, gpus, flexible)
					if wantErr := gpus > r.free(); (err != nil) != wantErr {
						t.Fatalf("step %d: Allocate err=%v, model free=%d gpus=%d", step, err, r.free(), gpus)
					}
					if err == nil {
						r.alloc[jid] += gpus
						if flexible {
							r.flex[jid] += gpus
						}
					}
				case op < 6: // release part or all of one job
					if len(r.alloc) == 0 {
						continue
					}
					jid := anyKey(rng, r.alloc)
					held := r.alloc[jid]
					gpus := 1 + rng.Intn(held)
					if err := s.Release(jid, gpus); err != nil {
						t.Fatalf("step %d: Release: %v", step, err)
					}
					// Mirror the flexible-first release semantics.
					if held == gpus {
						delete(r.alloc, jid)
						delete(r.flex, jid)
					} else {
						r.alloc[jid] = held - gpus
						if f := r.flex[jid]; f > 0 {
							if nf := f - gpus; nf <= 0 {
								delete(r.flex, jid)
							} else {
								r.flex[jid] = nf
							}
						}
					}
				case op < 7: // release a whole job (preemption / finish)
					if len(r.alloc) == 0 {
						continue
					}
					jid := anyKey(rng, r.alloc)
					if got := s.ReleaseJob(jid); got != r.alloc[jid] {
						t.Fatalf("step %d: ReleaseJob = %d, want %d", step, got, r.alloc[jid])
					}
					delete(r.alloc, jid)
					delete(r.flex, jid)
				default: // move (loans, reclaims, crashes, recoveries)
					to := Pool(rng.Intn(4))
					err := c.Move(id, to)
					werr := m.move(id, to)
					if (err != nil) != (werr != nil) {
						t.Fatalf("step %d: Move(%d,%v) err=%v, model err=%v", step, id, to, err, werr)
					}
				}
				compare(t, step, c, m)
				compareBestFit(t, step, rng, c, m)
			}
		})
	}
}

// anyKey picks a deterministic pseudo-random key from a map by sorting the
// keys first (map range order would poison reproducibility).
func anyKey(rng *rand.Rand, m map[int]int) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}
