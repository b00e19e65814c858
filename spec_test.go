package lyra

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"lyra/internal/cluster"
)

var updateGolden = flag.Bool("update", false, "rewrite the spec golden files")

// TestScenarioPackCompiles keeps every shipped spec loadable: each file in
// testdata/scenarios must parse, validate and compile into at least one
// cell whose Config passes Validate.
func TestScenarioPackCompiles(t *testing.T) {
	paths, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no pack specs found: %v", err)
	}
	for _, p := range paths {
		s, err := LoadSpec(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		cells, err := s.Compile()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(cells) == 0 {
			t.Errorf("%s: compiled to no cells", p)
		}
		for _, c := range cells {
			if err := c.Config.Validate(); err != nil {
				t.Errorf("%s cell %s: %v", p, c.Label(), err)
			}
		}
	}
}

// TestSpecGoldenRoundTrip pins the smoke spec's compilation output: the
// canonical JSON of its compiled cells must be byte-stable across
// refactors. Any intentional change to spec semantics shows up as a golden
// diff (regenerate with: go test -run TestSpecGoldenRoundTrip -update).
func TestSpecGoldenRoundTrip(t *testing.T) {
	s, err := LoadSpec("testdata/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := "testdata/golden/smoke.cells.json"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("compiled smoke.json diverged from golden %s;\nre-run with -update if the change is intentional.\ngot:\n%s", golden, got)
	}

	// Compilation must be a pure function of the spec: a second compile of
	// a freshly parsed spec is deeply identical.
	s2, err := LoadSpec("testdata/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := s2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, cells2) {
		t.Error("two compiles of the same spec diverged")
	}
}

// TestParseSpecExplicitZeros: an explicit 0 is a set value, not a default —
// a fraction pointer is set and a lost-jobs bound asserts.
func TestParseSpecExplicitZeros(t *testing.T) {
	s, err := ParseSpec([]byte(`{
  "version": 1, "name": "zeros", "seed": 3,
  "cluster": {"training_servers": 8, "inference_servers": 4},
  "trace": {"days": 1, "frac_elastic": 0},
  "schemes": [{"name": "a", "scheduler": "lyra", "elastic": true}],
  "slo": {"lost_jobs": 0, "jct_p99_hours": 10}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace.FracElastic == nil || *s.Trace.FracElastic != 0 {
		t.Error("explicit frac_elastic 0 must parse as a set pointer, not a default")
	}
	if s.SLO.LostJobs == nil || *s.SLO.LostJobs != 0 {
		t.Error("explicit lost_jobs 0 must parse as an assertion")
	}
}

// TestSpecErrorsNameFields asserts that structural and compile errors name
// the spec field (path) that caused them, and decode errors their line.
func TestSpecErrorsNameFields(t *testing.T) {
	const base = `{
  "version": 1,
  "name": "e",
  "cluster": {"training_servers": 4},
  "schemes": [{"scheduler": "lyra"}]
}`
	with := func(old, new string) string { return strings.Replace(base, old, new, 1) }
	extra := func(field string) string { return with(`"version": 1,`, `"version": 1, `+field+`,`) }
	cases := []struct {
		name, doc, wantSub string
	}{
		{"version", with(`"version": 1`, `"version": 9`), "version"},
		{"name", with(`"name": "e"`, `"description": "x"`), "name: required"},
		{"cluster", with(`"training_servers": 4`, `"training_servers": 0`), "cluster.training_servers"},
		{"scenario", extra(`"scenario": "bogus"`), `scenario: unknown scenario "bogus"`},
		{"frac", extra(`"workload": {"elastic_frac": 1.5}`), "workload.elastic_frac"},
		{"no schemes", with(`[{"scheduler": "lyra"}]`, `[]`), "schemes"},
		{"unknown field", with(`"name": "e"`, `"nmae": "e"`), `line 3: json: unknown field "nmae"`},
		{"misspelled nested key", with(`"scheduler"`, `"schedular"`), `line 5: json: unknown field "schedular"`},
		{"syntax error", with(`"training_servers": 4}`, `"training_servers": 4,}`), "line 4: invalid character '}'"},
		{"wrong type", with(`"training_servers": 4`, `"training_servers": "four"`), "line 4: json: cannot unmarshal string"},
		{"truncated", base[:len(base)-2], "line 5: unexpected EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}

	// Reclaim/Reclaims conflict and per-cell Config validation failures
	// carry the scheme index and cell label.
	conflict := with(`{"scheduler": "lyra"}`, `{"scheduler": "lyra", "reclaim": "lyra", "reclaims": ["lyra", "scf"]}`)
	if _, err := ParseSpec([]byte(conflict)); err == nil || !strings.Contains(err.Error(), "schemes[0]") {
		t.Errorf("reclaim conflict err = %v, want schemes[0]", err)
	}
	s, err := ParseSpec([]byte(with(`"scheduler": "lyra"`, `"scheduler": "bogus"`)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Compile()
	if err == nil || !strings.Contains(err.Error(), "schemes[0]") || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("bad scheduler err = %v, want schemes[0] and the value", err)
	}

	// LoadSpec errors carry the file path.
	if _, err := LoadSpec("testdata/scenarios/does-not-exist.json"); err == nil ||
		!strings.Contains(err.Error(), "does-not-exist.json") {
		t.Errorf("missing file err = %v, want path", err)
	}
}

// TestCompileSpecDefaults pins the compilation conventions the CLIs use:
// trace GPUs derived from the cluster, scenario seed = seed+100, mix seed =
// seed+200, fault seed fallback to the spec seed.
func TestCompileSpecDefaults(t *testing.T) {
	doc := `{
  "version": 1, "name": "defaults", "seed": 5,
  "cluster": {"training_servers": 4, "inference_servers": 2},
  "scenario": "basic",
  "workload": {"elastic_frac": 0.4},
  "faults": "mtbf=21600,mttr=600",
  "schemes": [{"scheduler": "lyra"}]
}`
	s, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.Trace.TrainingGPUs != 4*8 {
		t.Errorf("TrainingGPUs = %d, want cluster-derived 32", c.Trace.TrainingGPUs)
	}
	if c.Trace.Seed != 5 {
		t.Errorf("trace seed = %d, want spec seed 5", c.Trace.Seed)
	}
	if c.Mix.ScenarioSeed != 105 {
		t.Errorf("scenario seed = %d, want seed+100", c.Mix.ScenarioSeed)
	}
	if c.Mix.ElasticFrac == nil || c.Mix.ElasticFrac.Seed != 205 {
		t.Errorf("mix knob = %+v, want seed+200", c.Mix.ElasticFrac)
	}
	if !c.Config.Faults.Enabled() || c.Config.Faults.Seed != 5 {
		t.Errorf("fault plan = %+v, want enabled with spec seed", c.Config.Faults)
	}
	if c.Cell != "lyra" {
		t.Errorf("default cell name = %q, want scheduler kind", c.Cell)
	}
}

// ResolveFaultPlan is the one seed fallback chain behind the CLIs'
// -faults/-fault-seed/-seed and a spec's faults/fault_seed/seed.
func TestResolveFaultPlanSeedChain(t *testing.T) {
	for _, c := range []struct {
		spec            string
		faultSeed, seed int64
		want            FaultPlan
	}{
		{"mtbf=900,seed=3", 5, 7, FaultPlan{Seed: 3, ServerMTBF: 900, ServerMTTR: 600}},
		{"mtbf=900", 5, 7, FaultPlan{Seed: 5, ServerMTBF: 900, ServerMTTR: 600}},
		{"mtbf=900", 0, 7, FaultPlan{Seed: 7, ServerMTBF: 900, ServerMTTR: 600}},
		{"", 5, 7, FaultPlan{}},
		{"seed=3", 5, 7, FaultPlan{}}, // injects nothing: the zero plan
	} {
		if got, err := ResolveFaultPlan(c.spec, c.faultSeed, c.seed); err != nil || got != c.want {
			t.Errorf("ResolveFaultPlan(%q, %d, %d) = %+v, %v; want %+v", c.spec, c.faultSeed, c.seed, got, err, c.want)
		}
	}
	if _, err := ResolveFaultPlan("mtbf=-1", 0, 1); err == nil {
		t.Error("a negative MTBF resolved without error")
	}
}

// TestSpecShardsAndGPUs covers the sharded-topology and mixed-generation
// spec surface: the shards block lowers onto Config.TrainingShards /
// InferenceShards, GPU names lower onto cluster GPU types with the T4
// inference default preserved, and malformed values fail naming the field.
func TestSpecShardsAndGPUs(t *testing.T) {
	doc := `{
  "version": 1, "name": "sharded",
  "cluster": {"training_servers": 8, "inference_servers": 4, "training_gpu": "a100"},
  "shards": {"training": 2, "inference": 2},
  "schemes": [{"scheduler": "lyra", "loaning": true}]
}`
	s, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cells[0].Config
	if cfg.TrainingShards != 2 || cfg.InferenceShards != 2 {
		t.Errorf("shards = %d/%d, want 2/2", cfg.TrainingShards, cfg.InferenceShards)
	}
	if cfg.Cluster.TrainingGPU != cluster.A100 {
		t.Errorf("training GPU = %v, want A100 (case-insensitive parse)", cfg.Cluster.TrainingGPU)
	}
	if cfg.Cluster.InferenceGPU != cluster.T4 {
		t.Errorf("inference GPU = %v, want the T4 default under explicit training_gpu", cfg.Cluster.InferenceGPU)
	}

	for _, c := range []struct{ name, doc, wantSub string }{
		{"one-sided shards", strings.Replace(doc, `"inference": 2`, `"inference": 0`, 1), "shards"},
		{"negative shards", strings.Replace(doc, `"training": 2`, `"training": -1`, 1), "shards"},
		{"bad gpu", strings.Replace(doc, `"training_gpu": "a100"`, `"training_gpu": "H100"`, 1), "cluster.training_gpu"},
		{"bad inference gpu", strings.Replace(doc, `"training_gpu": "a100"`, `"inference_gpu": "nope"`, 1), "cluster.inference_gpu"},
	} {
		if _, err := ParseSpec([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

// TestSLOEvaluate exercises the assertion semantics directly: hour-unit
// bounds against second-unit summaries, the lost-jobs pointer, and Tighten
// scaling only upper bounds.
func TestSLOEvaluate(t *testing.T) {
	rep := &Report{Total: 100, Completed: 99}
	rep.Queue.Mean = 2 * 3600
	rep.Queue.P99 = 10 * 3600
	rep.JCT.Mean = 5 * 3600
	rep.JCT.P99 = 50 * 3600

	zero := 0
	s := SLOSpec{QueuingP99Hours: 12, JCTP99Hours: 40, LostJobs: &zero, MinCompletedFrac: 0.999}
	vs := s.Evaluate(rep, 0)
	asserts := make(map[string]bool)
	for _, v := range vs {
		asserts[v.Assert] = true
	}
	if asserts["queuing_p99_hours"] {
		t.Error("10h p99 within a 12h bound must pass")
	}
	if !asserts["jct_p99_hours"] || !asserts["lost_jobs"] || !asserts["min_completed_frac"] {
		t.Errorf("violations = %v, want jct_p99_hours, lost_jobs and min_completed_frac", vs)
	}

	if (SLOSpec{}).Evaluate(rep, 0) != nil {
		t.Error("empty SLO must assert nothing")
	}
	tight := s.Tighten(0.01)
	if tight.QueuingP99Hours != 0.12 || tight.LostJobs != s.LostJobs {
		t.Errorf("Tighten: %+v (must scale bounds, not the lost-jobs count)", tight)
	}
	if len(tight.Evaluate(rep, 0)) <= len(vs) {
		t.Error("tightened SLO must fail at least as hard")
	}
}

// FuzzParseSpec drives the spec parser and the compiler with arbitrary
// documents, seeded with the scenario pack: neither may panic, and a spec
// that parses must survive its own JSON encoding — re-parsed from
// json.Marshal it compiles to deeply equal cells.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no pack specs found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version": 1, "name": "j", "cluster": {"training_servers": 8, "inference_servers": 4},
		"trace": {"days": 1, "frac_elastic": 0}, "faults": "mtbf=21600,mttr=600",
		"schemes": [{"scheduler": "lyra", "elastic": true, "loaning": true, "reclaims": ["lyra", "scf"]}],
		"slo": {"lost_jobs": 0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		cells, err := s.Compile()
		if err != nil {
			return
		}
		doc, err := json.Marshal(s)
		if err != nil || !utf8.Valid(data) {
			// NaN/Inf have no JSON form, and Marshal rewrites invalid
			// UTF-8 in strings: neither document can round-trip.
			return
		}
		s2, err := ParseSpec(doc)
		if err != nil {
			t.Fatalf("spec does not re-parse from its JSON: %v\n%s", err, doc)
		}
		cells2, err := s2.Compile()
		if err != nil {
			t.Fatalf("spec compiles but not from its re-encoded JSON: %v\n%s", err, doc)
		}
		if !reflect.DeepEqual(cells, cells2) {
			t.Fatalf("cells diverge after a JSON round trip:\n%+v\nvs\n%+v\n%s", cells, cells2, doc)
		}
	})
}
