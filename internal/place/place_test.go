package place

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// testCluster builds 2 training + 2 on-loan + 1 inference servers.
func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 3})
	for _, s := range c.PoolServers(cluster.PoolInference)[:2] {
		if err := c.Move(s.ID, cluster.PoolOnLoan); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestGangAllOrNothing(t *testing.T) {
	c := testCluster(t)
	j := job.New(1, 0, job.Generic, 8, 3, 3, 100) // 3 workers x 8 GPUs > 2 training servers
	ws, ok := Gang(c, j, 3, PreferTraining(false))
	if ok {
		t.Fatalf("gang of 24 training GPUs should not fit 16: placed %v", ws)
	}
	if c.UsedGPUs(cluster.PoolTraining) != 0 {
		t.Error("failed gang left allocations behind")
	}
	j2 := job.New(2, 0, job.Generic, 8, 2, 2, 100)
	ws, ok = Gang(c, j2, 2, PreferTraining(false))
	if !ok || len(ws) != 2 {
		t.Fatalf("gang of 16 GPUs should fit: %v %v", ws, ok)
	}
	if c.UsedGPUs(cluster.PoolTraining) != 16 {
		t.Errorf("used = %d, want 16", c.UsedGPUs(cluster.PoolTraining))
	}
}

func TestGangSingleTypeFallsBackToOtherPool(t *testing.T) {
	c := testCluster(t)
	// Fill the training pool.
	filler := job.New(9, 0, job.Generic, 8, 2, 2, 100)
	if _, ok := Gang(c, filler, 2, PreferTraining(false)); !ok {
		t.Fatal("filler failed")
	}
	j := job.New(1, 0, job.Generic, 4, 2, 2, 100)
	ws, ok := Gang(c, j, 2, PreferTraining(true))
	if !ok {
		t.Fatal("should fall back to on-loan pool")
	}
	for _, w := range ws {
		if w.GPU != cluster.T4 {
			t.Errorf("fallback worker on %v, want T4", w.GPU)
		}
	}
}

func TestGangNeverMixesTypesForNonHetero(t *testing.T) {
	c := testCluster(t)
	// Fill the training pool entirely: a 2x4-GPU job cannot fit there and
	// must not span V100+T4 — it moves wholly to the on-loan servers.
	for _, id := range []int{9, 10} {
		filler := job.New(id, 0, job.Generic, 8, 1, 1, 100)
		if _, ok := Gang(c, filler, 1, PreferTraining(false)); !ok {
			t.Fatal("filler failed")
		}
	}
	j := job.New(1, 0, job.Generic, 4, 2, 2, 100)
	ws, ok := Gang(c, j, 2, PreferTraining(true))
	if !ok {
		t.Fatal("should fit entirely on the two on-loan servers")
	}
	for _, w := range ws {
		if w.GPU != cluster.T4 {
			t.Fatalf("worker on %v: non-hetero job mixed GPU types: %v", w.GPU, ws)
		}
		if w.GPUs != 8 {
			t.Fatalf("T4 worker occupies %d GPUs, want 8 (memory doubling)", w.GPUs)
		}
	}
}

func TestGangHeteroMayMix(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 1, InferenceServers: 2})
	if err := c.Move(1, cluster.PoolOnLoan); err != nil {
		t.Fatal(err)
	}
	// Leave 4 free training GPUs: the hetero job's first 4-GPU worker
	// lands there, the second spills to a T4 server (8 GPUs there).
	if err := c.Server(0).Allocate(50, 4, false); err != nil {
		t.Fatal(err)
	}
	j := job.New(1, 0, job.Generic, 4, 2, 2, 100)
	j.Hetero = true
	opt := Options{PreferPool: cluster.PoolTraining, AllowOther: true} // no SingleGPUType
	ws, ok := Gang(c, j, 2, opt)
	if !ok {
		t.Fatal("hetero gang should span pools")
	}
	types := map[cluster.GPUType]bool{}
	for _, w := range ws {
		types[w.GPU] = true
	}
	if len(types) != 2 {
		t.Errorf("hetero job should have mixed types, got %v", ws)
	}
}

func TestWorkerGPUsMemoryRule(t *testing.T) {
	j := job.New(1, 0, job.Generic, 2, 1, 1, 100)
	if got := WorkerGPUs(j, cluster.V100); got != 2 {
		t.Errorf("V100 worker GPUs = %d, want 2", got)
	}
	if got := WorkerGPUs(j, cluster.T4); got != 4 {
		t.Errorf("T4 worker GPUs = %d, want 4 (16 GB vs 32 GB)", got)
	}
	if got := WorkerGPUs(j, cluster.A100); got != 2 {
		t.Errorf("A100 worker GPUs = %d, want 2 (more memory than V100)", got)
	}
}

func TestBestFitPrefersTightestServer(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 3, InferenceServers: 0})
	// Server 0: 6 used (2 free); server 1: 4 used (4 free); server 2 empty.
	if err := c.Server(0).Allocate(50, 6, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Server(1).Allocate(51, 4, false); err != nil {
		t.Fatal(err)
	}
	j := job.New(1, 0, job.Generic, 2, 1, 1, 100)
	ws, ok := Gang(c, j, 1, PreferTraining(false))
	if !ok || ws[0].Server != 0 {
		t.Errorf("best fit should pick server 0 (tightest), got %v", ws)
	}
	// A 4-GPU worker no longer fits server 0; best fit is server 1.
	j2 := job.New(2, 0, job.Generic, 4, 1, 1, 100)
	ws, ok = Gang(c, j2, 1, PreferTraining(false))
	if !ok || ws[0].Server != 1 {
		t.Errorf("best fit should pick server 1, got %v", ws)
	}
}

func TestBestFitPrefersNonEmpty(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 0})
	if err := c.Server(0).Allocate(50, 1, false); err != nil {
		t.Fatal(err)
	}
	j := job.New(1, 0, job.Generic, 4, 1, 1, 100)
	ws, ok := Gang(c, j, 1, PreferTraining(false))
	if !ok || ws[0].Server != 0 {
		t.Errorf("should pack onto the non-empty server, got %v", ws)
	}
}

func TestUpToPartial(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 1, InferenceServers: 0})
	j := job.New(1, 0, job.Generic, 2, 1, 8, 100)
	j.Elastic = true
	ws := UpTo(c, j, 8, Options{PreferPool: cluster.PoolTraining, SingleGPUType: true, Flexible: true})
	if len(ws) != 4 { // 8 GPUs / 2 per worker
		t.Fatalf("placed %d workers, want 4", len(ws))
	}
	for _, w := range ws {
		if !w.Flexible {
			t.Error("UpTo should mark workers flexible when asked")
		}
	}
	if more := UpTo(c, j, 1, Options{PreferPool: cluster.PoolTraining}); len(more) != 0 {
		t.Errorf("full cluster placed %d more workers", len(more))
	}
}

func TestUpToLocksGPUType(t *testing.T) {
	c := testCluster(t)
	// 2 free GPUs on training (fill 14), plenty on on-loan.
	if err := c.Server(0).Allocate(50, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Server(1).Allocate(51, 6, false); err != nil {
		t.Fatal(err)
	}
	j := job.New(1, 0, job.Generic, 2, 1, 8, 100)
	ws := UpTo(c, j, 4, Options{PreferPool: cluster.PoolTraining, AllowOther: true, SingleGPUType: true})
	if len(ws) != 1 {
		t.Fatalf("placed %d workers, want 1 (type locked to V100 by first worker)", len(ws))
	}
	if ws[0].GPU != cluster.V100 {
		t.Errorf("first worker on %v", ws[0].GPU)
	}
}

func TestExcludeServers(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 0})
	j := job.New(1, 0, job.Generic, 2, 1, 4, 100)
	opt := Options{PreferPool: cluster.PoolTraining, Exclude: []int{0}}
	ws := UpTo(c, j, 2, opt)
	for _, w := range ws {
		if w.Server == 0 {
			t.Fatalf("placed on excluded server: %v", ws)
		}
	}
}

func TestFixedGPUConstraint(t *testing.T) {
	c := testCluster(t)
	gpu := cluster.T4
	j := job.New(1, 0, job.Generic, 2, 1, 4, 100)
	ws := UpTo(c, j, 2, Options{PreferPool: cluster.PoolTraining, AllowOther: true, SingleGPUType: true, FixedGPU: &gpu})
	if len(ws) == 0 {
		t.Fatal("nothing placed")
	}
	for _, w := range ws {
		if w.GPU != cluster.T4 {
			t.Errorf("worker on %v despite FixedGPU=T4", w.GPU)
		}
	}
}

func TestSortByDemand(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 0, job.Generic, 2, 1, 1, 10),
		job.New(2, 0, job.Generic, 8, 1, 1, 10),
		job.New(3, 0, job.Generic, 4, 1, 1, 10),
		job.New(4, 0, job.Generic, 8, 1, 1, 10),
	}
	SortByDemand(jobs)
	got := []int{jobs[0].ID, jobs[1].ID, jobs[2].ID, jobs[3].ID}
	want := []int{2, 4, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestGangZeroWorkers(t *testing.T) {
	c := testCluster(t)
	j := job.New(1, 0, job.Generic, 1, 1, 1, 10)
	ws, ok := Gang(c, j, 0, PreferTraining(false))
	if !ok || len(ws) != 0 {
		t.Errorf("zero-worker gang: %v %v", ws, ok)
	}
}

func TestFitsOnLoan(t *testing.T) {
	// A worker occupies twice its GPUs on T4; it fits when that is at most
	// one server of the cluster's configured size.
	for _, tc := range []struct {
		perServer, workerGPUs int
		want                  bool
	}{
		{8, 4, true}, {8, 8, false},
		{4, 2, true}, {4, 4, false},
		{16, 8, true}, {16, 16, false},
	} {
		c := cluster.New(cluster.Config{TrainingServers: 1, InferenceServers: 1, GPUsPerServer: tc.perServer})
		j := job.New(1, 0, job.Generic, tc.workerGPUs, 1, 1, 100)
		if got := FitsOnLoan(c, j); got != tc.want {
			t.Errorf("%d-GPU worker on %d-GPU T4 servers: FitsOnLoan = %v, want %v", tc.workerGPUs, tc.perServer, got, tc.want)
		}
	}
}
