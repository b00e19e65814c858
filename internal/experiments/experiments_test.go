package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns parameters small enough for every experiment to run inside
// the unit-test budget.
func tiny() Params {
	return Params{Days: 1, TrainingServers: 16, InferenceServers: 16, LoadFactor: 0.83, Seed: 1, Audit: true}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "table1", "table23", "table4",
		"calibration", "table5",
		"fig7", "fig8", "table6", "table7", "fig9", "fig10", "reclaimopt",
		"fig11", "fig12", "fig13", "table8", "table9", "fig1415", "fig16",
		"table10", "fig17", "ablation", "faultsweep", "domainsweep",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
		if reg[i].Run == nil || reg[i].What == "" {
			t.Errorf("registry entry %q incomplete", name)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table5"); !ok {
		t.Error("table5 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "long_column", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Calibration(t *testing.T) {
	tabs := Fig1(tiny())
	if len(tabs) != 1 || len(tabs[0].Rows) != 168 {
		t.Fatalf("fig1: %d tables, %d rows", len(tabs), len(tabs[0].Rows))
	}
	for _, row := range tabs[0].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("utilization %q invalid", row[1])
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tabs := Table1(tiny())
	rows := tabs[0].Rows
	wantCost := []string{"0.50", "0.50", "1.00", "0.50", "1.00", "0.50"}
	for i, row := range rows {
		if row[3] != wantCost[i] {
			t.Errorf("server %d lyra cost = %s, want %s", i+1, row[3], wantCost[i])
		}
	}
	wantJobs := []string{"1", "1", "1", "1", "2", "1"}
	for i, row := range rows {
		if row[1] != wantJobs[i] {
			t.Errorf("server %d job count = %s, want %s", i+1, row[1], wantJobs[i])
		}
	}
}

func TestTable23MatchesPaper(t *testing.T) {
	tabs := Table23(tiny())
	rows := tabs[0].Rows
	// Paper Table 3 average JCTs: 51.67, 41.67, 45.
	want := []string{"51.67", "41.67", "45.00"}
	for i, row := range rows {
		if row[5] != want[i] {
			t.Errorf("solution %d avg JCT = %s, want %s", i+1, row[5], want[i])
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tabs := Table4(tiny())
	rows := tabs[0].Rows
	// Paper Table 4: favoring A gives avg 62, favoring B 63.33.
	if rows[0][3] != "62.00" {
		t.Errorf("favor-A avg JCT = %s, want 62.00", rows[0][3])
	}
	if rows[1][3] != "63.33" {
		t.Errorf("favor-B avg JCT = %s, want 63.33", rows[1][3])
	}
	// Figure 6 values.
	fig6 := tabs[1].Rows
	want := map[string]string{"A1": "50", "B1": "20", "B2": "30", "B3": "36", "B4": "40"}
	for _, row := range fig6 {
		key := row[0] + row[1]
		if w, ok := want[key]; ok && row[3] != w {
			t.Errorf("fig6 %s value = %s, want %s", key, row[3], w)
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tabs := Table5(tiny())
	rows := tabs[0].Rows
	if len(rows) != 14 {
		t.Fatalf("table5 rows = %d, want 14", len(rows))
	}
	get := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(rows[row][col], "%"), 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	baselineQ, basicQ := get(0, 2), get(1, 2)
	if basicQ >= baselineQ {
		t.Errorf("Lyra Basic queuing %v should beat Baseline %v", basicQ, baselineQ)
	}
	baselineJCT, basicJCT, idealJCT := get(0, 5), get(1, 5), get(4, 5)
	if basicJCT >= baselineJCT {
		t.Errorf("Lyra Basic JCT %v should beat Baseline %v", basicJCT, baselineJCT)
	}
	if idealJCT >= baselineJCT {
		t.Errorf("Ideal JCT %v should beat Baseline %v", idealJCT, baselineJCT)
	}
}

// TestCalibrationShape gates the §7.2 fidelity cell (ROADMAP 5a): over seeds
// 1-5 the prototype completes what the simulator completes, and its mean JCT
// is the slower of the two — it pays launch latency and finishes jobs on tick
// boundaries — by no more than the 6.2% the paper reports. p95 is reported,
// not gated (the paper's 3.4%).
func TestCalibrationShape(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := tiny()
		p.Seed = seed
		reps := mustSimAll(p, calibrationSpecs(p))
		sim, proto := reps[0], reps[1]
		if sim.Completed != proto.Completed {
			t.Errorf("seed %d: simulator completed %d jobs, prototype %d", seed, sim.Completed, proto.Completed)
		}
		gap := (proto.JCT.Mean - sim.JCT.Mean) / sim.JCT.Mean
		if gap < 0 || gap > 0.062 {
			t.Errorf("seed %d: prototype mean JCT %.0f s vs simulator %.0f s (%+.2f%%), want slower by at most 6.2%%; p95 %.0f vs %.0f s (%+.2f%%)",
				seed, proto.JCT.Mean, sim.JCT.Mean, 100*gap, proto.JCT.P95, sim.JCT.P95, 100*(proto.JCT.P95-sim.JCT.P95)/sim.JCT.P95)
		}
	}
}

func TestReclaimOptNearOptimal(t *testing.T) {
	tabs := ReclaimOpt(tiny())
	for _, row := range tabs[0].Rows {
		l, _ := strconv.Atoi(row[2])
		o, _ := strconv.Atoi(row[3])
		if l < o {
			t.Errorf("lyra %d beat the optimum %d — optimal solver broken", l, o)
		}
		if l > o+2 {
			t.Errorf("lyra %d far from optimum %d", l, o)
		}
	}
}

func TestFig3LinearScaling(t *testing.T) {
	tabs := Fig3(tiny())
	rows := tabs[0].Rows
	last := rows[len(rows)-1]
	if last[2] != "32.00" {
		t.Errorf("32-worker normalized throughput = %s, want 32.00 (linear)", last[2])
	}
	imperfect, _ := strconv.ParseFloat(last[6], 64)
	if imperfect >= 32 {
		t.Errorf("imperfect scaling %v should trail linear", imperfect)
	}
}

// TestEveryExperimentRuns smoke-tests the full registry at tiny scale so a
// broken experiment cannot hide until someone runs the bench binary. The
// tables are the shared serial pass's.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	pass := serialPass()
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tabs := pass.tables[e.Name]
			if len(tabs) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tabs {
				if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
					t.Errorf("table %q incomplete", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("table %q row width %d != header %d", tab.ID, len(row), len(tab.Header))
					}
				}
				var buf bytes.Buffer
				tab.Fprint(&buf)
				if buf.Len() == 0 {
					t.Errorf("table %q printed nothing", tab.ID)
				}
			}
		})
	}
}
