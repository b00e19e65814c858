package job

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lyra/internal/cluster"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewDerivesWorkFromDuration(t *testing.T) {
	// 4 workers x 2 GPUs at V100 speed 1.0 => throughput 8; 100 s => 800
	// GPU-seconds of work.
	j := New(1, 0, Generic, 2, 4, 4, 100)
	if !almostEqual(j.Work, 800) {
		t.Errorf("Work = %v, want 800", j.Work)
	}
	if !almostEqual(j.MinRuntime(Linear), 100) {
		t.Errorf("MinRuntime = %v, want 100", j.MinRuntime(Linear))
	}
}

func TestValidate(t *testing.T) {
	good := New(1, 0, Generic, 1, 2, 2, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"zero gpus per worker", func(j *Job) { j.GPUsPerWorker = 0 }},
		{"zero min workers", func(j *Job) { j.MinWorkers = 0 }},
		{"max < min", func(j *Job) { j.MaxWorkers = 1; j.MinWorkers = 2 }},
		{"inelastic with range", func(j *Job) { j.Elastic = false; j.MaxWorkers = 4 }},
		{"zero work", func(j *Job) { j.Work = 0 }},
	}
	for _, tc := range cases {
		j := New(1, 0, Generic, 1, 2, 2, 10)
		tc.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestLinearThroughputScalesWithWorkers(t *testing.T) {
	j := New(1, 0, ResNet, 2, 1, 8, 50)
	t1 := j.NominalThroughput(1, cluster.V100, Linear)
	t8 := j.NominalThroughput(8, cluster.V100, Linear)
	if !almostEqual(t8, 8*t1) {
		t.Errorf("linear scaling: thr(8)=%v, want 8*thr(1)=%v", t8, 8*t1)
	}
}

func TestImperfectScalingLoss(t *testing.T) {
	// Each worker beyond the first contributes 80% of nominal (§7.2).
	j := New(1, 0, ResNet, 1, 1, 4, 10)
	thr := j.NominalThroughput(3, cluster.V100, Imperfect)
	want := 1.0 + 0.8 + 0.8
	if !almostEqual(thr, want) {
		t.Errorf("imperfect thr(3) = %v, want %v", thr, want)
	}
	if j.NominalThroughput(3, cluster.V100, Imperfect) >= j.NominalThroughput(3, cluster.V100, Linear) {
		t.Error("imperfect scaling should be strictly slower than linear for w>1")
	}
}

func TestThroughputGPUSpeed(t *testing.T) {
	j := New(1, 0, Generic, 2, 2, 2, 100)
	j.Workers = []Worker{
		{Server: 0, GPU: cluster.T4, GPUs: 2},
		{Server: 1, GPU: cluster.T4, GPUs: 2},
	}
	want := 4 * cluster.T4.Speed()
	if got := j.Throughput(Linear); !almostEqual(got, want) {
		t.Errorf("T4 throughput = %v, want %v", got, want)
	}
}

func TestHeteroPenaltyAppliesOnlyWhenMixed(t *testing.T) {
	sm := ScalingModel{PerWorkerLoss: 0, HeteroPenalty: 0.7}
	j := New(1, 0, BERT, 1, 2, 2, 100)
	j.Workers = []Worker{
		{Server: 0, GPU: cluster.V100, GPUs: 1},
		{Server: 1, GPU: cluster.V100, GPUs: 1},
	}
	pure := j.Throughput(sm)
	if !almostEqual(pure, 2) {
		t.Errorf("homogeneous throughput = %v, want 2 (no penalty)", pure)
	}
	j.Workers[1].GPU = cluster.T4
	mixed := j.Throughput(sm)
	want := (1 + cluster.T4.Speed()) * 0.7
	if !almostEqual(mixed, want) {
		t.Errorf("mixed throughput = %v, want %v", mixed, want)
	}
}

func TestAdvanceRetiresWork(t *testing.T) {
	j := New(1, 0, Generic, 1, 1, 1, 100) // work = 100
	j.Workers = []Worker{{Server: 0, GPU: cluster.V100, GPUs: 1}}
	done := j.Advance(30, Linear)
	if !almostEqual(done, 30) || !almostEqual(j.Remaining, 70) {
		t.Errorf("after 30s: done=%v remaining=%v", done, j.Remaining)
	}
	// Advancing past completion clamps at zero.
	done = j.Advance(1000, Linear)
	if !almostEqual(done, 70) || j.Remaining != 0 {
		t.Errorf("clamp: done=%v remaining=%v", done, j.Remaining)
	}
}

func TestAdvanceWithoutWorkersIsNoop(t *testing.T) {
	j := New(1, 0, Generic, 1, 1, 1, 100)
	if done := j.Advance(50, Linear); done != 0 {
		t.Errorf("job without workers advanced by %v", done)
	}
}

func TestResetProgress(t *testing.T) {
	j := New(1, 0, Generic, 1, 1, 1, 100)
	j.Workers = []Worker{{GPU: cluster.V100, GPUs: 1}}
	j.Advance(40, Linear)
	j.ResetProgress()
	if !almostEqual(j.Remaining, j.Work) {
		t.Errorf("after reset remaining=%v, want %v", j.Remaining, j.Work)
	}
}

func TestRemainingRuntime(t *testing.T) {
	j := New(1, 0, Generic, 2, 2, 2, 100)
	if _, ok := j.RemainingRuntime(Linear); ok {
		t.Error("job without workers should have no remaining runtime")
	}
	j.Workers = []Worker{
		{GPU: cluster.V100, GPUs: 2},
		{GPU: cluster.V100, GPUs: 2},
	}
	rt, ok := j.RemainingRuntime(Linear)
	if !ok || !almostEqual(rt, 100) {
		t.Errorf("remaining runtime = %v/%v, want 100/true", rt, ok)
	}
}

func TestRuntimeAtTable2(t *testing.T) {
	// Table 2: job A with w_max=6 and min running time 50 takes 150 s with
	// 2 workers under linear scaling (inverse proportionality).
	a := New(1, 0, Generic, 1, 2, 6, 50)
	a.Elastic = true
	if got := a.RuntimeAt(2, Linear); !almostEqual(got, 150) {
		t.Errorf("RuntimeAt(2) = %v, want 150", got)
	}
	if got := a.RuntimeAt(6, Linear); !almostEqual(got, 50) {
		t.Errorf("RuntimeAt(6) = %v, want 50", got)
	}
}

func TestWorkerCountsAndGPUs(t *testing.T) {
	j := New(1, 0, Generic, 2, 1, 3, 100)
	j.Elastic = true
	j.Workers = []Worker{
		{Server: 0, GPU: cluster.V100, GPUs: 2, Flexible: false},
		{Server: 1, GPU: cluster.T4, GPUs: 2, Flexible: true},
		{Server: 1, GPU: cluster.T4, GPUs: 2, Flexible: true},
	}
	if j.NumWorkers() != 3 || j.FlexibleWorkers() != 2 || j.GPUsHeld() != 6 {
		t.Errorf("workers=%d flexible=%d gpus=%d", j.NumWorkers(), j.FlexibleWorkers(), j.GPUsHeld())
	}
}

func TestBaseAndMaxGPUs(t *testing.T) {
	j := New(1, 0, Generic, 4, 2, 6, 100)
	j.Elastic = true
	if j.BaseGPUs() != 8 || j.MaxGPUs() != 24 || j.FlexRange() != 4 {
		t.Errorf("base=%d max=%d flex=%d", j.BaseGPUs(), j.MaxGPUs(), j.FlexRange())
	}
}

func TestJCT(t *testing.T) {
	j := New(1, 100, Generic, 1, 1, 1, 10)
	j.FinishTime = 250
	if j.JCT() != 150 {
		t.Errorf("JCT = %d, want 150", j.JCT())
	}
}

func TestCloneIsDeep(t *testing.T) {
	j := New(1, 0, Generic, 1, 1, 2, 10)
	j.Elastic = true
	j.Workers = []Worker{{Server: 3, GPU: cluster.V100, GPUs: 1}}
	c := j.Clone()
	c.Workers[0].Server = 9
	c.Remaining = 1
	if j.Workers[0].Server != 3 || j.Remaining == 1 {
		t.Error("Clone shares state with original")
	}
}

func TestModelAndStateStrings(t *testing.T) {
	for m, want := range map[Model]string{ResNet: "ResNet-50", VGG: "VGG16", BERT: "BERT", GNMT: "GNMT-16", Generic: "Generic"} {
		if m.String() != want {
			t.Errorf("Model %d = %q, want %q", m, m.String(), want)
		}
	}
	for s, want := range map[State]string{Pending: "pending", Running: "running", Completed: "completed"} {
		if s.String() != want {
			t.Errorf("State %d = %q, want %q", s, s.String(), want)
		}
	}
}

// TestPropertyThroughputMonotone checks that adding workers never decreases
// throughput and that runtime is inversely proportional under linear
// scaling.
func TestPropertyThroughputMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rng.Intn(8) + 1
		wmax := rng.Intn(15) + 2
		j := New(1, 0, Generic, g, 1, wmax, float64(rng.Intn(10000)+1))
		j.Elastic = true
		for _, sm := range []ScalingModel{Linear, Imperfect} {
			prev := 0.0
			for w := 1; w <= wmax; w++ {
				thr := j.NominalThroughput(w, cluster.V100, sm)
				if thr <= prev {
					return false
				}
				prev = thr
			}
		}
		// Inverse proportionality under Linear: w * runtime(w) constant.
		base := float64(1) * j.RuntimeAt(1, Linear)
		for w := 2; w <= wmax; w++ {
			if math.Abs(float64(w)*j.RuntimeAt(w, Linear)-base) > 1e-6*base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAdvanceConservation checks that repeated Advance calls retire
// exactly Work units in total, regardless of step sizes.
func TestPropertyAdvanceConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := New(1, 0, Generic, 1, 2, 2, float64(rng.Intn(500)+50))
		j.Workers = []Worker{{GPU: cluster.V100, GPUs: 1}, {GPU: cluster.V100, GPUs: 1}}
		total := 0.0
		for j.Remaining > 0 {
			total += j.Advance(float64(rng.Intn(20))+0.5, Linear)
		}
		return math.Abs(total-j.Work) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
