package experiments

import (
	"fmt"

	"lyra"
	"lyra/internal/cluster"
	"lyra/internal/runner"
)

// testbedSpec declares one scheme on the §7.5 64-GPU prototype: 180 jobs
// (~10 of them elastic, like Basic), submissions spanning 8 hours, training
// times from 2 minutes to 2 hours, demand capped at half the cluster. cfg
// is the scheme alone; the cluster, seed and audit switch are filled in
// here.
func testbedSpec(p Params, name string, cfg lyra.Config) runner.Spec {
	cfg.Cluster = cluster.TestbedConfig()
	cfg.Seed = p.Seed
	cfg.Audit = p.Audit
	return runner.Spec{
		Name:    name,
		Config:  cfg,
		Trace:   runner.TraceSpec{TestbedJobs: 180, TestbedSeed: p.Seed},
		Testbed: &lyra.TestbedOptions{},
	}
}

func testbedRow(name string, r *lyra.Report, loaning bool) []string {
	preempt := fmtPct(r.PreemptionRatio)
	if !loaning {
		preempt = "NA"
	}
	return []string{
		name,
		fmtS(r.Queue.Mean), fmtS(r.Queue.P50), fmtS(r.Queue.P95),
		fmtS(r.JCT.Mean), fmtS(r.JCT.P50), fmtS(r.JCT.P95),
		preempt,
	}
}

// Table10 regenerates the testbed comparison: overall Baseline vs Lyra,
// the reclaiming schemes, and the elastic schedulers, all on the prototype
// runtime (containers with launch latency, tick-granular progress).
func Table10(p Params) []*Table {
	t := &Table{
		ID:     "table10",
		Title:  "Testbed results (64-GPU prototype, 180-job trace)",
		Header: []string{"scheme", "q_mean", "q_med", "q_p95", "jct_mean", "jct_med", "jct_p95", "preempt"},
	}
	rows := []struct {
		name string
		cfg  lyra.Config
	}{
		{"Baseline(FIFO)", lyra.Config{Scheduler: lyra.SchedFIFO}},
		{"Lyra(full)", lyra.Config{Elastic: true, Loaning: true}},
		{"Loan/Random", lyra.Config{Loaning: true, Reclaim: lyra.ReclaimRandom}},
		{"Loan/SCF", lyra.Config{Loaning: true, Reclaim: lyra.ReclaimSCF}},
		{"Loan/Lyra", lyra.Config{Loaning: true}},
		{"Elastic/Gandiva", lyra.Config{Scheduler: lyra.SchedGandiva}},
		{"Elastic/AFS", lyra.Config{Scheduler: lyra.SchedAFS}},
		{"Elastic/Pollux", lyra.Config{Scheduler: lyra.SchedPollux}},
		{"Elastic/Lyra", lyra.Config{Elastic: true}},
	}
	specs := make([]runner.Spec, len(rows))
	for i, r := range rows {
		specs[i] = testbedSpec(p, "table10/"+r.name, r.cfg)
	}
	results := mustSimAll(p, specs)
	for i, r := range rows {
		t.Rows = append(t.Rows, testbedRow(r.name, results[i], r.cfg.Loaning))
	}
	t.Notes = append(t.Notes,
		"paper shape: Lyra improves queuing ~1.38x and JCT ~1.22x over Baseline; reclaiming order Lyra < SCF < Random preemptions")
	return []*Table{t}
}

// Fig17 regenerates the testbed preemption/collateral comparison across
// reclaiming schemes, with elastic scaling disabled and enabled. The
// disabled trio and the enabled/Lyra cell reuse Table 10's runs when one
// pool serves both experiments.
func Fig17(p Params) []*Table {
	t := &Table{
		ID:     "fig17",
		Title:  "Testbed preemption ratio and collateral damage by reclaiming scheme",
		Header: []string{"scaling", "scheme", "preempt_ratio", "collateral"},
	}
	kinds := []struct {
		name string
		kind lyra.ReclaimKind
	}{{"Random", lyra.ReclaimRandom}, {"SCF", lyra.ReclaimSCF}, {"Lyra", lyra.ReclaimLyra}}
	var specs []runner.Spec
	for _, elastic := range []bool{false, true} {
		for _, rc := range kinds {
			specs = append(specs, testbedSpec(p, fmt.Sprintf("fig17/%s/elastic=%v", rc.name, elastic),
				lyra.Config{Elastic: elastic, Loaning: true, Reclaim: rc.kind}))
		}
	}
	results := mustSimAll(p, specs)
	i := 0
	for _, elastic := range []bool{false, true} {
		label := "disabled"
		if elastic {
			label = "enabled"
		}
		for _, rc := range kinds {
			r := results[i]
			i++
			t.Rows = append(t.Rows, []string{label, rc.name, fmtPct(r.PreemptionRatio), fmtPct(r.CollateralDamage)})
		}
	}
	t.Notes = append(t.Notes, "paper: Lyra reduces preemptions by >1.3x over Random and SCF; scaling reduces them further")
	return []*Table{t}
}
