package place

import (
	"slices"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// pools is the order rule r gives j on c.
func pools(r Rule, c *cluster.Cluster, j *job.Job) []cluster.Pool {
	return PoolOrder(r(c, j))
}

// TestDefaultRuleOrders pins §5.3's pool orders: elastic jobs on-loan
// first, fungible and heterogeneous ones training first with on-loan
// servers allowed, everything else — and every job whose worker fits no
// inference server — on the training pool alone. Only heterogeneous gangs
// may mix GPU types.
func TestDefaultRuleOrders(t *testing.T) {
	c := cluster.New(cluster.Config{})
	T, L := cluster.PoolTraining, cluster.PoolOnLoan
	for _, tc := range []struct {
		name                      string
		elastic, fungible, hetero bool
		workerGPUs                int
		want                      []cluster.Pool
	}{
		{"inelastic", false, false, false, 2, []cluster.Pool{T}},
		{"fungible", false, true, false, 2, []cluster.Pool{T, L}},
		{"elastic", true, false, false, 2, []cluster.Pool{L, T}},
		{"elastic fungible", true, true, false, 2, []cluster.Pool{L, T}},
		{"hetero", true, true, true, 2, []cluster.Pool{T, L}},
		{"unloanable elastic", true, true, false, 8, []cluster.Pool{T}},
		{"unloanable hetero", true, true, true, 8, []cluster.Pool{T}},
	} {
		j := job.New(1, 0, job.Generic, tc.workerGPUs, 1, 2, 100)
		j.Elastic, j.Fungible, j.Hetero = tc.elastic, tc.fungible, tc.hetero
		opt := Default(c, j)
		if got := PoolOrder(opt); !slices.Equal(got, tc.want) {
			t.Errorf("%s: pool order %v, want %v", tc.name, got, tc.want)
		}
		if opt.SingleGPUType == tc.hetero {
			t.Errorf("%s: SingleGPUType = %v, want %v", tc.name, opt.SingleGPUType, !tc.hetero)
		}
	}
}

func TestOpportunisticPolicyRestrictsFungible(t *testing.T) {
	c := cluster.New(cluster.Config{})
	if got := pools(Opportunistic, c, &job.Job{Fungible: true}); !slices.Equal(got, []cluster.Pool{cluster.PoolOnLoan}) {
		t.Errorf("opportunistic fungible jobs go to the inference cluster only, got %v", got)
	}
	if got := pools(Opportunistic, c, &job.Job{}); !slices.Equal(got, []cluster.Pool{cluster.PoolTraining}) {
		t.Errorf("opportunistic non-fungible jobs stay on training, got %v", got)
	}
}

func TestUnloanableWorkerStaysOnTraining(t *testing.T) {
	// A fungible job with 8-GPU workers cannot use T4 servers (16 GPUs
	// after memory doubling): it must be pinned to the training pool.
	j := job.New(1, 0, job.Generic, 8, 1, 1, 100)
	j.Fungible = true
	c := cluster.New(cluster.Config{})
	for name, r := range map[string]Rule{"default": Default, "opportunistic": Opportunistic} {
		if got := pools(r, c, j); !slices.Equal(got, []cluster.Pool{cluster.PoolTraining}) {
			t.Errorf("%s rule: unloanable fungible job may use %v, want the training pool only", name, got)
		}
	}
}

func TestOpportunisticRuntimeBound(t *testing.T) {
	short := job.New(1, 0, job.Generic, 2, 1, 1, 600)
	short.Fungible = true
	short.EstimatedRuntime = 600
	long := job.New(2, 0, job.Generic, 2, 1, 1, 100000)
	long.Fungible = true
	long.EstimatedRuntime = 100000
	c := cluster.New(cluster.Config{})
	if got := pools(Opportunistic, c, short); !slices.Equal(got, []cluster.Pool{cluster.PoolOnLoan}) {
		t.Errorf("short fungible jobs go to the inference cluster only, got %v", got)
	}
	if got := pools(Opportunistic, c, long); !slices.Equal(got, []cluster.Pool{cluster.PoolTraining}) {
		t.Errorf("long fungible jobs stay on training (they could never finish on transient loans), got %v", got)
	}
}

// TestScaleOutExcludesOnLoanBaseServers pins the §5.3 separation a
// scale-out is placed under: every on-loan server hosting one of the job's
// base workers is excluded, and no training server or flexible-only server
// is; the exclusions land in the caller's buffer.
func TestScaleOutExcludesOnLoanBaseServers(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 3})
	for _, s := range c.PoolServers(cluster.PoolInference) {
		if err := c.Move(s.ID, cluster.PoolOnLoan); err != nil { // servers 2-4 on loan
			t.Fatal(err)
		}
	}
	j := job.New(1, 0, job.Generic, 1, 3, 6, 100)
	j.Elastic = true
	j.Workers = []job.Worker{
		{Server: 0}, {Server: 2}, {Server: 3, Flexible: true}, {Server: 4},
	}
	buf := make([]int, 0, 8)
	opt := ScaleOut(c, j, false, buf)
	if want := []int{2, 4}; !slices.Equal(opt.Exclude, want) {
		t.Errorf("Exclude = %v, want the on-loan base servers %v", opt.Exclude, want)
	}
	if &opt.Exclude[0] != &buf[:1][0] {
		t.Error("Exclude does not reuse the caller's buffer")
	}
	if got := PoolOrder(opt); !slices.Equal(got, []cluster.Pool{cluster.PoolOnLoan, cluster.PoolTraining}) || !opt.Flexible {
		t.Errorf("scale-out order %v (flexible %v), want on-loan first, flexible", got, opt.Flexible)
	}
	if ex := ScaleOut(c, j, true, buf).Exclude; len(ex) != 0 {
		t.Errorf("naive placement excludes %v, want nothing", ex)
	}
}

// TestPoolOrderAllocatesNothing: every placement reads its pool order, so
// reading one must not allocate, and appending to a shared order must not
// change it.
func TestPoolOrderAllocatesNothing(t *testing.T) {
	_ = append(PoolOrder(Options{PreferPool: cluster.PoolOnLoan}), cluster.PoolInference)
	if got := PoolOrder(Options{PreferPool: cluster.PoolOnLoan, AllowOther: true}); got[1] != cluster.PoolTraining {
		t.Fatalf("an append to the on-loan-only order overwrote the shared order: %v", got)
	}
	opts := []Options{
		{PreferPool: cluster.PoolTraining}, {PreferPool: cluster.PoolTraining, AllowOther: true},
		{PreferPool: cluster.PoolOnLoan}, {PreferPool: cluster.PoolOnLoan, AllowOther: true},
	}
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		for _, o := range opts {
			n += len(PoolOrder(o))
		}
	}); a != 0 {
		t.Errorf("PoolOrder allocates %.0f times per call", a)
	}
}
