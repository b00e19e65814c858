package trace

import (
	"bytes"
	"strings"
	"testing"

	"lyra/internal/job"
)

func smallConfig(seed int64) Config {
	cfg := Default(seed)
	cfg.Days = 3
	return cfg
}

func TestGenerateValidates(t *testing.T) {
	tr := Generate(smallConfig(1))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("empty trace")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(42))
	b := Generate(smallConfig(42))
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Arrival != jb.Arrival || ja.Work != jb.Work || ja.MaxWorkers != jb.MaxWorkers ||
			ja.Fungible != jb.Fungible || ja.Elastic != jb.Elastic {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := Generate(smallConfig(43))
	if len(c.Jobs) == len(a.Jobs) && c.Jobs[0].Arrival == a.Jobs[0].Arrival && c.Jobs[0].Work == a.Jobs[0].Work {
		t.Error("different seeds look identical")
	}
}

func TestCalibrationFractions(t *testing.T) {
	tr := Generate(Default(7)) // full 15 days for stable statistics
	s := tr.ComputeStats()
	if s.FracFungible < 0.18 || s.FracFungible > 0.24 {
		t.Errorf("fungible fraction = %v, want ~0.21", s.FracFungible)
	}
	if s.FracElastic < 0.035 || s.FracElastic > 0.065 {
		t.Errorf("elastic fraction = %v, want ~0.05", s.FracElastic)
	}
	if s.ElasticWorkShare < 0.25 || s.ElasticWorkShare > 0.48 {
		t.Errorf("elastic work share = %v, want ~0.36 (§2.2)", s.ElasticWorkShare)
	}
	if s.OfferedLoad < 0.75 || s.OfferedLoad > 1.15 {
		t.Errorf("offered load = %v, want near LoadFactor %v", s.OfferedLoad, tr.Config.LoadFactor)
	}
	// Paper: 50,390 jobs over 15 days. Same order of magnitude expected.
	if s.NumJobs < 15000 || s.NumJobs > 120000 {
		t.Errorf("job count = %d, want tens of thousands", s.NumJobs)
	}
}

func TestDurationsMinutesToDays(t *testing.T) {
	tr := Generate(smallConfig(3))
	short, long := false, false
	for _, j := range tr.Jobs {
		d := j.MinRuntime(job.Linear)
		if d < 60 {
			t.Fatalf("job %d duration %v below one minute", j.ID, d)
		}
		if d > 5*86400+1 {
			t.Fatalf("job %d duration %v above clamp", j.ID, d)
		}
		if d < 1800 {
			short = true
		}
		if d > 86400 {
			long = true
		}
	}
	if !short || !long {
		t.Errorf("durations should span minutes (found=%v) to days (found=%v)", short, long)
	}
}

func TestElasticJobShape(t *testing.T) {
	tr := Generate(smallConfig(5))
	for _, j := range tr.Jobs {
		if !j.Elastic {
			if j.MinWorkers != j.MaxWorkers {
				t.Fatalf("inelastic job %d has a scaling range", j.ID)
			}
			continue
		}
		if j.MaxWorkers < 2*j.MinWorkers {
			t.Fatalf("elastic job %d range too narrow: %d..%d", j.ID, j.MinWorkers, j.MaxWorkers)
		}
		if j.GPUsPerWorker != 2 {
			t.Fatalf("elastic job %d should use 2-GPU workers (§2.2)", j.ID)
		}
		if j.Model == job.Generic {
			t.Fatalf("elastic job %d should come from a named model family", j.ID)
		}
	}
}

func TestMaxJobGPUsCap(t *testing.T) {
	cfg := smallConfig(9)
	cfg.MaxJobGPUs = 16
	tr := Generate(cfg)
	for _, j := range tr.Jobs {
		if j.MaxGPUs() > 16 {
			t.Fatalf("job %d max demand %d exceeds cap", j.ID, j.MaxGPUs())
		}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestArrivalModulationDiurnal(t *testing.T) {
	day := arrivalModulation(14 * 3600)             // Thursday 2pm
	night := arrivalModulation(2 * 3600)            // Thursday 2am
	weekend := arrivalModulation(2*86400 + 14*3600) // Saturday 2pm
	if day <= night {
		t.Errorf("daytime modulation %v should exceed nighttime %v", day, night)
	}
	if weekend >= day {
		t.Errorf("weekend modulation %v should be below weekday %v", weekend, day)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := Generate(smallConfig(2))
	cp := tr.Clone()
	cp.Jobs[0].Remaining = -1
	cp.Jobs[0].Workers = append(cp.Jobs[0].Workers, job.Worker{Server: 1})
	if tr.Jobs[0].Remaining == -1 || len(tr.Jobs[0].Workers) != 0 {
		t.Error("Clone shares job state")
	}
}

// A run's first act is to clone its trace, so a clone costs the trace, the
// pointer slice and one slab of jobs, whatever the length — and a job that
// holds workers (a trace cloned after a run) still gets its own copy of them.
func TestCloneAllocationsDoNotGrowWithTheTrace(t *testing.T) {
	tr := Generate(smallConfig(2))
	for _, n := range []int{1, 100, len(tr.Jobs)} {
		short := &Trace{Horizon: tr.Horizon, Config: tr.Config, Jobs: tr.Jobs[:n]}
		if a := testing.AllocsPerRun(5, func() { short.Clone() }); a > 3 {
			t.Errorf("Clone of %d unrun jobs: %.0f allocations, want at most 3", n, a)
		}
	}
	tr.Jobs[1].Workers = []job.Worker{{Server: 7, GPUs: 2}}
	cp := tr.Clone()
	cp.Jobs[1].Workers[0].Server = 8
	if tr.Jobs[1].Workers[0].Server != 7 {
		t.Error("Clone shares placed workers with its source")
	}
}

// BenchmarkClone clones the scale tier's trace (223,777 jobs, one day at
// 354,400 training GPUs), the first thing every run of it does.
func BenchmarkClone(b *testing.B) {
	cfg := Default(1)
	cfg.Days, cfg.TrainingGPUs = 1, 354400
	tr := Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrace = tr.Clone()
	}
}

var benchTrace *Trace

func TestBootstrap(t *testing.T) {
	tr := Generate(smallConfig(4))
	boots := tr.Bootstrap(2, 5, 99)
	if len(boots) != 5 {
		t.Fatalf("bootstrap count = %d", len(boots))
	}
	for i, b := range boots {
		if b.Horizon != 2*86400 {
			t.Errorf("bootstrap %d horizon = %d", i, b.Horizon)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("bootstrap %d: %v", i, err)
		}
		if len(b.Jobs) == 0 {
			t.Errorf("bootstrap %d empty", i)
		}
		// IDs must be unique and dense.
		seen := make(map[int]bool)
		for _, j := range b.Jobs {
			if seen[j.ID] {
				t.Fatalf("bootstrap %d: duplicate job ID %d", i, j.ID)
			}
			seen[j.ID] = true
		}
	}
	// Bootstraps must not alias the source jobs.
	boots[0].Jobs[0].Remaining = -5
	ok := true
	for _, j := range tr.Jobs {
		if j.Remaining == -5 {
			ok = false
		}
	}
	if !ok {
		t.Error("bootstrap aliases source trace jobs")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	tr := Generate(smallConfig(4))
	a := tr.Bootstrap(2, 3, 7)
	b := tr.Bootstrap(2, 3, 7)
	for i := range a {
		if len(a[i].Jobs) != len(b[i].Jobs) {
			t.Fatalf("bootstrap %d differs under same seed", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(Config{Seed: 6, Days: 1, TrainingGPUs: 256, LoadFactor: 0.5, FracElastic: 0.2, FracFungible: 0.3})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip jobs %d != %d", len(got.Jobs), len(tr.Jobs))
	}
	for i := range got.Jobs {
		a, b := tr.Jobs[i], got.Jobs[i]
		if a.ID != b.ID || a.Arrival != b.Arrival || a.MinWorkers != b.MinWorkers ||
			a.MaxWorkers != b.MaxWorkers || a.Elastic != b.Elastic || a.Fungible != b.Fungible {
			t.Fatalf("job %d differs after round trip:\n%+v\n%+v", i, a, b)
		}
		// Work is reconstructed from the duration column.
		if d := a.Work - b.Work; d > 1e-6*a.Work || d < -1e-6*a.Work {
			t.Fatalf("job %d work differs: %v vs %v", i, a.Work, b.Work)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("bad header should fail")
	}
	hdr := "id,arrival,model,gpus_per_worker,min_workers,max_workers,duration_at_max,fungible,elastic,hetero,checkpoint\n"
	if _, err := ReadCSV(bytes.NewBufferString(hdr + "x,0,0,1,1,1,10,false,false,false,false\n")); err == nil {
		t.Error("bad id should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString(hdr + "0,0,0,0,1,1,10,false,false,false,false\n")); err == nil {
		t.Error("invalid job (0 GPUs/worker) should fail")
	}
	row := "7,0,0,1,1,1,10,false,false,false,false\n"
	if _, err := ReadCSV(bytes.NewBufferString(hdr + row + row)); err == nil || !strings.Contains(err.Error(), "job ID 7 repeats") {
		t.Errorf("repeated job ID: got %v, want an error naming ID 7", err)
	}
}
