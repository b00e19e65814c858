package runner

import (
	"strings"
	"testing"

	"lyra"
)

const matrixSpecDoc = `{
  "version": 1,
  "name": "mtest",
  "seed": 1,
  "cluster": {"training_servers": 16, "inference_servers": 16},
  "trace": {"days": 1, "training_gpus": 128},
  "scenario": "basic",
  "schemes": [
    {"name": "lyra", "scheduler": "lyra", "elastic": true, "loaning": true, "reclaim": "lyra"},
    {"name": "baseline", "scheduler": "fifo"}
  ],
  "slo": {"lost_jobs": 0}
}`

func compileMatrixSpec(t *testing.T) []lyra.CompiledCell {
	t.Helper()
	s, err := lyra.ParseSpec([]byte(matrixSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// cellSpec is the Spec Pool.Matrix runs a compiled cell as.
func cellSpec(c lyra.CompiledCell) Spec {
	return Spec{Name: c.Label(), Config: c.Config, Mix: c.Mix, Trace: TraceSpec{Gen: c.Trace}}
}

// TestSpecCompiledKeyMatchesHandBuilt is the API-redesign acceptance test:
// a spec-compiled cell must memoize under exactly the content key of the
// equivalent hand-built Spec, so declarative runs and imperative
// experiments share one cache and one byte-identity guarantee.
func TestSpecCompiledKeyMatchesHandBuilt(t *testing.T) {
	cells := compileMatrixSpec(t)

	// Hand-built twin of the spec's first cell, the way the experiments
	// package (or a lyra-sim invocation) would write it.
	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	cfg.Seed = 1
	gen := lyra.DefaultTraceConfig(1)
	gen.Days = 1
	gen.TrainingGPUs = 128
	hand := NewSpec(cfg, gen).WithScenario(lyra.Basic, 101)

	handKey, err := hand.Key()
	if err != nil {
		t.Fatal(err)
	}
	specKey, err := cellSpec(cells[0]).Key()
	if err != nil {
		t.Fatal(err)
	}
	if handKey != specKey {
		t.Errorf("spec-compiled cell keys %s, hand-built keys %s — the declarative path built a different Config", specKey, handKey)
	}

	// And the two cells of the matrix must NOT collide with each other.
	otherKey, err := cellSpec(cells[1]).Key()
	if err != nil {
		t.Fatal(err)
	}
	if otherKey == specKey {
		t.Error("distinct schemes keyed identically")
	}
}

// TestMatrixSharesMemoWithHandBuiltRuns runs the hand-built spec first,
// then the compiled matrix: the matching cell must be a cache hit, not a
// re-execution.
func TestMatrixSharesMemoWithHandBuiltRuns(t *testing.T) {
	cells := compileMatrixSpec(t)
	pool := New(2)

	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	cfg.Seed = 1
	gen := lyra.DefaultTraceConfig(1)
	gen.Days = 1
	gen.TrainingGPUs = 128
	handRep, err := pool.Sim(NewSpec(cfg, gen).WithScenario(lyra.Basic, 101))
	if err != nil {
		t.Fatal(err)
	}

	m := pool.Matrix(cells)
	if !m.OK() {
		t.Fatalf("matrix failed: %+v", m.Cells)
	}
	st := pool.Stats()
	if st.Executed != 2 { // hand-built + baseline; the lyra cell is a hit
		t.Errorf("executed %d simulations, want 2 (matrix cell must hit the hand-built run's cache entry)", st.Executed)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	for _, c := range m.Cells {
		if c.Cell == "lyra" && c.Report != handRep {
			t.Error("memoized cell returned a different report pointer than the hand-built run")
		}
		if c.Key == "" {
			t.Errorf("cell %s has no content key", c.Cell)
		}
	}
}

// TestMatrixSLOViolationFails seeds a regression (an absurdly tight bound
// standing in for a genuinely regressed scheduler) and requires the harness
// to fail loudly with the measured value.
func TestMatrixSLOViolationFails(t *testing.T) {
	cells := compileMatrixSpec(t)
	for i := range cells {
		cells[i].SLO.JCTP99Hours = 0.001
	}
	m := New(2).Matrix(cells)
	if m.OK() || m.Failures() != len(cells) {
		t.Fatalf("tightened matrix passed: %+v", m.Cells)
	}
	for _, c := range m.Cells {
		if c.Err != nil {
			t.Fatalf("cell %s errored rather than failing its SLO: %v", c.Cell, c.Err)
		}
		found := false
		for _, v := range c.Violations {
			if v.Assert == "jct_p99_hours" && v.Measured > v.Bound {
				found = true
			}
		}
		if !found {
			t.Errorf("cell %s violations = %v, want jct_p99_hours with measured value", c.Cell, c.Violations)
		}
	}

	var sb strings.Builder
	m.WriteTable(&sb)
	if !strings.Contains(sb.String(), "FAIL") || !strings.Contains(sb.String(), "jct_p99_hours") {
		t.Errorf("table does not spell out the failure:\n%s", sb.String())
	}
}

// TestMatrixRecordsCellErrors ensures one broken cell reports as an error
// row instead of aborting the whole matrix.
func TestMatrixRecordsCellErrors(t *testing.T) {
	cells := compileMatrixSpec(t)
	cells[0].Config.Scheduler = "bogus" // corrupt after compile-time validation
	m := New(2).Matrix(cells)
	if m.OK() {
		t.Fatal("matrix with a broken cell passed")
	}
	if m.Cells[0].Err == nil {
		t.Error("broken cell has no error")
	}
	if !m.Cells[1].Pass() {
		t.Errorf("healthy cell failed: %+v", m.Cells[1])
	}
	var sb strings.Builder
	m.WriteTable(&sb)
	if !strings.Contains(sb.String(), "ERROR") {
		t.Errorf("table hides the execution error:\n%s", sb.String())
	}
}

// TestSpecCompiledKeyWithoutScenario: a spec with no scenario compiles to a
// cell keyed like the hand-built Spec that never called WithScenario — the
// spec's default scenario seed does not ride along into the key.
func TestSpecCompiledKeyWithoutScenario(t *testing.T) {
	s, err := lyra.ParseSpec([]byte(strings.Replace(matrixSpecDoc, `"scenario": "basic",`, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	cfg.Seed = 1
	gen := lyra.DefaultTraceConfig(1)
	gen.Days = 1
	gen.TrainingGPUs = 128
	if got, want := mustKey(t, cellSpec(cells[0])), mustKey(t, NewSpec(cfg, gen)); got != want {
		t.Errorf("scenario-less cell keys %s, hand-built keys %s", got, want)
	}
}
