package runner

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"lyra"
)

// mixedSpecs are differently mixed runs over tinyGen's trace: every
// scenario, each mix knob alone and all three after Ideal, a bootstrap
// resample, a run capped half-way through the trace under an elastic
// fraction (the jobs past the cap never arrive, but they sit in the trace
// the knob draws over), and a 2+2 sharded cluster.
func mixedSpecs() []Spec {
	base := NewSpec(tinyCfg(), tinyGen())
	specs := []Spec{}
	for _, kind := range lyra.Scenarios() {
		specs = append(specs, base.WithScenario(kind, 101).Named(string(kind)))
	}
	capped := base.WithScenario(lyra.Basic, 101).WithElasticFrac(0.5, 8).Named("capped-elastic")
	capped.Config.MaxTime = 43200
	sharded := base.WithScenario(lyra.Advanced, 4).Named("sharded-2+2")
	sharded.Config.TrainingShards, sharded.Config.InferenceShards = 2, 2
	return append(specs,
		base.WithHeteroFrac(0.3, 5).Named("hetero-frac"),
		base.WithElasticFrac(0.4, 6).Named("elastic-frac"),
		base.WithCheckpointFrac(0.5, 7).Named("checkpoint-frac"),
		base.WithScenario(lyra.Ideal, 3).WithHeteroFrac(0.2, 5).WithElasticFrac(0.6, 6).
			WithCheckpointFrac(0.5, 7).Named("ideal+knobs"),
		base.WithScenario(lyra.Heterogeneous, 3).WithBootstrap(1, 3, 1, 5).Named("bootstrap"),
		capped,
		sharded,
	)
}

// mixedDigest is the sha256 of a report's %+v form with Raw, Prof and Events
// dropped, followed by the %+v form of every job the run was given, in its
// final state: the capability flags the mix set are part of the pin.
func mixedDigest(rep *lyra.Report) string {
	c := *rep
	c.Raw, c.Prof, c.Events = nil, nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", c)
	for _, j := range rep.Raw.Jobs {
		fmt.Fprintf(h, "%+v\n", *j)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestMixedRunsPinned pins the reports of mixedSpecs, run through one pool.
// Where the workload mix is applied (to a shared trace or to each run's own
// copy, to the whole trace or to the jobs that can arrive) must not change
// a single result.
func TestMixedRunsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	want := map[string]string{
		"baseline":        "451528f5c895da86f2055f11b184d277d39d15a28e5221cf28b013a6273b8133",
		"basic":           "ddb70a3f0ca12625e739130f84094a0caa7d034d78a2e917879ba9878a78cd87",
		"advanced":        "f4531312cba8e10a0fe69a15de4665a7bb49ea571b981f7fba02a49360665a1b",
		"heterogeneous":   "24f2e313ecafe672916364c89b13f346e0b37d52e378f6ea8bff001c00fce32c",
		"ideal":           "5cd186a071f3708e8ef2c2e49fd1497dfb719f5fc9acea4cd330071b364aa755",
		"hetero-frac":     "6630da75db83aeb15b477e0591f1d9f3d6bbcd9913e8eb1c88ef1f0e3c493228",
		"elastic-frac":    "ca24b4bd8549395dadd66d8205df64805e58c8a1fe85743ed4a492a8da246f04",
		"checkpoint-frac": "d5de73dead610886e8bbda1ebd701edd8e26e91354479ad22dc0477e52882d0c",
		"ideal+knobs":     "e72fba375c33c4894d37445eb599531261b8492708ffc7596e56d4bef5a88366",
		"bootstrap":       "ad951a8871f8db5fdd6e858beccead1bb64dc108238eaf0c0570969ed49dd977",
		"capped-elastic":  "cb298cbd4eabf6671ee0fe83c7e9e8edd7611737f5b065bfbf4fae7bc7222e44",
		"sharded-2+2":     "dee5d41dbae6bead184079e4b5f1c3cb42206b62f11de15688be0831ea7281cb",
	}
	specs := mixedSpecs()
	reps, err := New(4).SimAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if got := mixedDigest(rep); got != want[specs[i].Name] {
			t.Errorf("%s: digest %s, want %s (%d of %d jobs completed)",
				specs[i].Name, got, want[specs[i].Name], rep.Completed, rep.Total)
		}
	}
	if c := reps[len(reps)-2]; len(c.Raw.Jobs) >= c.Total {
		t.Errorf("capped-elastic: the run was given %d of %d jobs; the cap left none out", len(c.Raw.Jobs), c.Total)
	}
}

// sameJobs reports every field of every job in which got differs from want.
func sameJobs(t *testing.T, name string, got, want *lyra.Trace) {
	t.Helper()
	if got.Horizon != want.Horizon || got.Config != want.Config || len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: horizon %d, %d jobs; want %d, %d jobs (or the configs differ)",
			name, got.Horizon, len(got.Jobs), want.Horizon, len(want.Jobs))
	}
	for i, j := range got.Jobs {
		g, w := reflect.ValueOf(*j), reflect.ValueOf(*want.Jobs[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				t.Errorf("%s: job %d's %s is %v, freshly generated %v", name, j.ID, g.Type().Field(f).Name, g.Field(f), w.Field(f))
			}
		}
	}
}

// The pool hands every run its memoized trace read-only: after mixedSpecs,
// bootstrap resamples among them, have run eight at a time, the base trace
// and the bootstrap set the pool keeps are field for field the ones a fresh
// synthesis gives.
func TestPoolLeavesItsTracesUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	specs := mixedSpecs()
	for i := 0; i < 3; i++ {
		specs = append(specs, NewSpec(tinyCfg(), tinyGen()).WithScenario(lyra.Ideal, 3).
			WithElasticFrac(0.3, int64(i)).WithBootstrap(1, 3, i, 5).Named(fmt.Sprintf("bootstrap-%d", i)))
	}
	p := New(8)
	if _, err := p.SimAll(specs); err != nil {
		t.Fatal(err)
	}
	gens := p.Stats().TraceGens
	fresh := lyra.GenerateTrace(tinyGen())
	base, err := p.materializeTrace(specs[0].Trace)
	if err != nil {
		t.Fatal(err)
	}
	sameJobs(t, "base trace", base, fresh)
	for i, boot := range fresh.Bootstrap(1, 3, 5) {
		kept, err := p.materializeTrace(specs[len(specs)-3+i].Trace)
		if err != nil {
			t.Fatal(err)
		}
		sameJobs(t, fmt.Sprintf("bootstrap %d", i), kept, boot)
	}
	if st := p.Stats(); st.TraceGens != gens || gens != 2 {
		t.Errorf("%d traces synthesized by the runs, %d after; want the base and the bootstrap set once", gens, st.TraceGens)
	}
}

// BenchmarkPoolSim is the runner layer end to end: a fresh one-worker pool
// synthesizes tinyGen's trace and one bootstrap set once and runs
// mixedSpecs over them, unaudited, as a registry pass runs its tables. B/op
// counts every copy of the trace the pool and the runs make.
func BenchmarkPoolSim(b *testing.B) {
	specs := mixedSpecs()
	for i := range specs {
		specs[i].Config.Audit = false
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(1).SimAll(specs); err != nil {
			b.Fatal(err)
		}
	}
}
