package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lyra"
	"lyra/internal/experiments"
	"lyra/internal/sim"
)

// tinyWorkloads is every workload on the tiny shape: same code paths, a
// fraction of a second each.
func tinyWorkloads() []workload {
	var ws []workload
	for _, s := range simSpecs {
		s := s.tiny()
		ws = append(ws, workload{s.name, func(seed int64) (input, error) { return s.build(seed) }})
	}
	// Without the ablations: their LSTM forecaster alone trains for a second.
	p := experiments.Params{Days: 1, TrainingServers: 8, InferenceServers: 8, LoadFactor: 0.83, Seed: 1}
	ids := []string{"table5", "table8", "table9", "fig10", "fig12", "domainsweep"}
	return append(ws, workload{"registry-sim", func(seed int64) (input, error) { return buildRegistry(p, ids, seed) }})
}

func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if got := strings.Join(spec.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command %q, want the build-and-run script under paths", got)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != ws[i].name {
			t.Errorf("workload %d is %q in %s and %q in the program", i, w.Name, specFile, ws[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%s lists %d end-to-end metrics, the program reports %d", specFile, len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		check(m.Name)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in %s and %s [%s] in the program", i, m.Name, m.Unit, specFile, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and better lower, got %s/%s", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	for n := range simulated {
		if !seen[n] {
			t.Errorf("simulated metric %s is not an end-to-end metric", n)
		}
	}

	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%s lists %d per-layer metrics, the program reports %d", specFile, len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d is %s [%s] in %s and %s [%s] in the program", i, m.Name, m.Unit, specFile, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestAssemblyMatchesRun is the drift guard: the traced run assembles the
// engine inside this package, so that copy must keep producing lyra.Run's
// report, bare and wrapped, and the wrapped scheduler must still let the
// engine skip quiescent epochs.
func TestAssemblyMatchesRun(t *testing.T) {
	for _, s := range simSpecs {
		in, err := s.tiny().build(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lyra.Run(in.cfg, in.trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			got, err := assemble(in.cfg, in.trace, tr)
			if err != nil {
				t.Fatal(err)
			}
			if reportDigest(got) != reportDigest(want) {
				t.Errorf("%s (tracer %v): assemble's report differs from lyra.Run's:\n got %+v\nwant %+v", s.name, tr != nil, *got, *want)
			}
			if got.Raw.SkippedSchedEpochs != want.Raw.SkippedSchedEpochs {
				t.Errorf("%s (tracer %v): %d epochs skipped, lyra.Run skips %d", s.name, tr != nil, got.Raw.SkippedSchedEpochs, want.Raw.SkippedSchedEpochs)
			}
		}
		if want.Raw.SkippedSchedEpochs == 0 {
			t.Errorf("%s: no epoch was skipped, so the guard proves nothing about Memoryless", s.name)
		}
	}
	var wrapped sim.Scheduler = &tracedSched{inner: &memorylessStub{}}
	if m, ok := wrapped.(sim.MemorylessScheduler); !ok || !m.Memoryless() {
		t.Error("tracedSched does not forward Memoryless")
	}
}

type memorylessStub struct{ sim.Scheduler }

func (memorylessStub) Memoryless() bool { return true }

// TestEveryWorkloadPath runs the timed, traced and events paths of every
// workload, and checks that both kinds of run report exactly their table.
func TestEveryWorkloadPath(t *testing.T) {
	outDir := t.TempDir()
	for _, w := range tinyWorkloads() {
		res, det := measureEndToEnd(w, 1, time.Now())
		if !res.Correct || res.Failed != 0 || res.Attempted != minReps+1 {
			t.Errorf("%s end to end: %+v %v", w.name, res, det.Errors)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s is %v, want a positive value", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if det.Digest == "" || len(det.Samples["wall_s"]) != minReps {
			t.Errorf("%s: digest %q, %d wall samples", w.name, det.Digest, len(det.Samples["wall_s"]))
		}
		// Three set-ups before the first repetition, one before each timed one.
		if n := len(det.Samples["setup_s"]); n != 3+minReps {
			t.Errorf("%s: %d set-up samples, want %d", w.name, n, 3+minReps)
		}

		res, det = measureLayers(w, 1, time.Now(), outDir)
		if !res.Correct {
			t.Errorf("%s traced: %v", w.name, det.Errors)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		if res.Metrics["lyra.Run.traced_wall_ms"].Value <= 0 || res.Metrics["trace.Generate.jobs"].Value <= 0 {
			t.Errorf("%s: traced run reported no wall time or no jobs", w.name)
		}
		if fi, err := os.Stat(filepath.Join(outDir, w.name+".trace.json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span trace written: %v", w.name, err)
		}

		var buf bytes.Buffer
		if err := printRun(&buf, w.name, 1, 1, res, det); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":1,"failed":0,"metrics":{`) {
			t.Errorf("%s: last line is not the result object: %.80s", w.name, last)
		}
	}
}

func TestLayerMetricsSeparateTheLayers(t *testing.T) {
	m := newMetricSet(perLayer)
	in, err := simSpecs[2].tiny().build(1) // prod-sharded
	if err != nil {
		t.Fatal(err)
	}
	if err := in.layers(m, time.Now(), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"sched.Schedule.calls", "arbiter.Epoch.calls", "arbiter.Route.calls",
		"inference.TargetOnLoan.calls", "obs.events.count", "prof.epoch.sched.self_ms", "sim.epochs_skipped"} {
		if m[n].Value <= 0 {
			t.Errorf("sharded run reports %s = %v", n, m[n].Value)
		}
	}
	if m["orchestrator.Epoch.calls"].Value != 0 {
		t.Error("sharded run went through the unsharded orchestrator")
	}
	if r := m["sim.skip_ratio"].Value; r <= 0 || r > 1 {
		t.Errorf("skip ratio %v outside (0, 1]", r)
	}
	if got := union([][2]int64{{5, 9}, {0, 3}, {2, 4}, {9, 10}}); got != 9 {
		t.Errorf("union = %d, want 9", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, pct := tail(xs); pct != 99 {
		t.Errorf("1000 samples: tail at p%v, want p99 (ten samples beyond it)", pct)
	}
	if _, pct := tail(xs[:99]); pct != 100 {
		t.Errorf("99 samples: tail at p%v, want the maximum", pct)
	}
	if _, pct := tail(make([]float64, 10000)); pct != 99.9 {
		t.Errorf("10000 samples: tail at p%v, want p99.9", pct)
	}
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *suiteResult {
		r := &suiteResult{Machine: machine{CPU: "test", NProc: 2, Go: "go", GOMAXPROCS: 2}, Seed: 1, Seconds: 1}
		wr := workloadResult{Name: "prod-basic", Correct: true, Attempted: 4, Digest: "aa", EndToEnd: make(map[string]summary)}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summary{Value: 2, Unit: d.Unit, N: 3, Min: 1.99, Q1: 1.99, Q3: 2.01, Max: 2.01}
		}
		r.Workloads = []workloadResult{wr}
		return r
	}
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "no row for " + metric
	}
	var buf bytes.Buffer

	if bad, err := compareResults(&buf, spec, mk(), mk()); err != nil || bad != 0 {
		t.Errorf("identical results: %d bad rows, %v\n%s", bad, err, buf.String())
	}

	slow := mk()
	s := slow.Workloads[0].EndToEnd["wall_s"]
	s.Value, s.Min, s.Q1, s.Q3, s.Max = 4, 3.98, 3.98, 4.02, 4.02
	slow.Workloads[0].EndToEnd["wall_s"] = s
	buf.Reset()
	if bad, err := compareResults(&buf, spec, mk(), slow); err != nil || bad != 1 || verdictOf(buf.String(), "wall_s") != "regressed" {
		t.Errorf("2x slower wall_s: %d bad rows, %v\n%s", bad, err, buf.String())
	}
	buf.Reset()
	if bad, err := compareResults(&buf, spec, slow, mk()); err != nil || bad != 0 || verdictOf(buf.String(), "wall_s") != "improved" {
		t.Errorf("2x faster wall_s: %d bad rows, %v\n%s", bad, err, buf.String())
	}

	noisy := mk()
	s = noisy.Workloads[0].EndToEnd["wall_s"]
	s.Q1, s.Q3 = 1, 3
	noisy.Workloads[0].EndToEnd["wall_s"] = s
	buf.Reset()
	if _, err := compareResults(&buf, spec, mk(), noisy); err != nil || verdictOf(buf.String(), "wall_s") != "unresolved" {
		t.Errorf("spread wider than the bound: %v\n%s", err, buf.String())
	}

	changed := mk()
	changed.Workloads[0].Digest = "bb"
	buf.Reset()
	if bad, err := compareResults(&buf, spec, mk(), changed); err != nil || bad != 1 || verdictOf(buf.String(), "digest") != "changed" {
		t.Errorf("changed digest: %d bad rows, %v\n%s", bad, err, buf.String())
	}
	if problems := disagreements(spec, mk(), changed); len(problems) != 1 {
		t.Errorf("selfcheck on a changed digest: %v", problems)
	}
	if problems := disagreements(spec, mk(), slow); len(problems) != 1 {
		t.Errorf("selfcheck on a 2x slower run: %v", problems)
	}

	other := mk()
	other.Machine.CPU = "another"
	if _, err := compareResults(&buf, spec, mk(), other); err == nil {
		t.Error("results from two machines were compared")
	}
	other = mk()
	other.Seed = 7
	if _, err := compareResults(&buf, spec, mk(), other); err == nil {
		t.Error("results from two seeds were compared")
	}
}
