package experiments

import (
	"fmt"
	"slices"
	"time"

	"lyra"
	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/metrics"
	"lyra/internal/reclaim"
	"lyra/internal/runner"
)

// ReclaimOpt compares Lyra's reclaiming heuristic to the exhaustive optimum
// on randomized on-loan instances, reporting preemption counts and the
// overlap of the selected server sets (§7.3), and in a second, WallClock
// table the two solvers' measured run times.
func ReclaimOpt(p Params) []*Table {
	t := &Table{
		ID:     "reclaimopt",
		Title:  "Lyra reclaiming vs exhaustive optimum (randomized instances)",
		Header: []string{"servers", "reclaim_n", "lyra_preempt", "opt_preempt", "server_overlap"},
	}
	wall := &Table{
		ID:        "reclaimopt",
		Title:     "wall time of both reclaim solvers on the same instances",
		Header:    []string{"servers", "lyra_time", "opt_time"},
		WallClock: true,
	}
	totalLyra, totalOpt := 0, 0
	var totalLyraTime, totalOptTime time.Duration
	for _, n := range []int{6, 10, 14, 18} {
		inst := buildReclaimInstance(p.Seed+int64(n), n)
		ask := n / 2
		lookup := func(id int) *job.Job { return inst.jobs[id] }
		start := time.Now()
		lp := reclaim.Lyra{}.Plan(inst.servers, lookup, ask)
		lyraTime := time.Since(start)
		start = time.Now()
		op := reclaim.Optimal{}.Plan(inst.servers, lookup, ask)
		optTime := time.Since(start)
		overlap := 0
		for _, s := range lp.Servers {
			if slices.Contains(op.Servers, s) {
				overlap++
			}
		}
		totalLyra += len(lp.PreemptJobs)
		totalOpt += len(op.PreemptJobs)
		totalLyraTime += lyraTime
		totalOptTime += optTime
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", ask),
			fmt.Sprintf("%d", len(lp.PreemptJobs)), fmt.Sprintf("%d", len(op.PreemptJobs)),
			fmtPct(float64(overlap) / float64(len(op.Servers))),
		})
		wall.Rows = append(wall.Rows, []string{fmt.Sprintf("%d", n), lyraTime.String(), optTime.String()})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total preemptions: lyra=%d optimal=%d (paper: identical below 60 servers, ~84%% server overlap)", totalLyra, totalOpt))
	slowdown := "n/a"
	if totalLyraTime > 0 {
		slowdown = fmt.Sprintf("%.0fx", float64(totalOptTime)/float64(totalLyraTime))
	}
	wall.Notes = append(wall.Notes,
		fmt.Sprintf("exhaustive search %s slower on these instances (paper: optimal 420,000x slower; the gap widens exponentially with instance size)", slowdown))
	return []*Table{t, wall}
}

type reclaimInstance struct {
	servers []*cluster.Server
	jobs    map[int]*job.Job
}

func buildReclaimInstance(seed int64, nServers int) reclaimInstance {
	rng := newRng(seed)
	servers := make([]*cluster.Server, nServers)
	for i := range servers {
		servers[i] = cluster.NewServer(i, cluster.T4, 8, cluster.PoolOnLoan)
	}
	jobs := make(map[int]*job.Job)
	for id := 0; id < nServers*2; id++ {
		j := job.New(id, 0, job.Generic, 2, 1, 1, 100)
		j.State = job.Running
		spread := rng.Intn(3) + 1
		for s := 0; s < spread; s++ {
			sid := rng.Intn(nServers)
			if servers[sid].Free() < 2 {
				continue
			}
			if err := servers[sid].Allocate(id, 2, false); err != nil {
				panic(err)
			}
			j.Workers = append(j.Workers, job.Worker{Server: sid, GPU: cluster.T4, GPUs: 2})
		}
		if len(j.Workers) > 0 {
			jobs[id] = j
		} else {
			for _, s := range servers {
				s.ReleaseJob(id)
			}
		}
	}
	return reclaimInstance{servers: servers, jobs: jobs}
}

// Fig11 sweeps the fraction of heterogeneous-capable jobs (10% to 90%) in
// the Heterogeneous scenario and reports reductions over Baseline.
func Fig11(p Params) []*Table {
	fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	specs := []runner.Spec{
		p.spec(baselineCfg(p)).WithScenario(lyra.Heterogeneous, p.Seed+100).Named("fig11/baseline"),
	}
	for _, frac := range fracs {
		specs = append(specs, p.spec(lyraCfg(p)).
			WithScenario(lyra.Heterogeneous, p.Seed+100).
			WithHeteroFrac(frac, p.Seed+200).
			Named(fmt.Sprintf("fig11/frac=%.1f", frac)))
	}
	reps := mustSimAll(p, specs)
	baseRep := reps[0]
	t := &Table{
		ID:     "fig11",
		Title:  "Reductions vs Baseline as more jobs support heterogeneous training",
		Header: []string{"hetero_frac", "queuing_reduction", "jct_reduction"},
	}
	for i, frac := range fracs {
		rep := reps[i+1]
		t.Rows = append(t.Rows, []string{
			fmtF(frac),
			fmtF(baseRep.Queue.Mean / rep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / rep.JCT.Mean),
		})
	}
	t.Notes = append(t.Notes, "paper: gains grow with the hetero fraction but the queuing reduction approaches an asymptote near 50%")
	return []*Table{t}
}

// Fig12 regenerates the reproducibility study: ten bootstrapped traces,
// Basic and Ideal reductions over their own Baselines, as one batched
// submission of thirty runs.
func Fig12(p Params) []*Table {
	days := p.Days * 2 / 3
	if days < 1 {
		days = 1
	}
	const nBoots = 10
	var specs []runner.Spec
	for i := 0; i < nBoots; i++ {
		boot := func(s runner.Spec) runner.Spec { return s.WithBootstrap(days, nBoots, i, p.Seed+300) }
		specs = append(specs,
			boot(p.spec(baselineCfg(p))).Named(fmt.Sprintf("fig12/%d/baseline", i)),
			boot(p.spec(lyraCfg(p))).Named(fmt.Sprintf("fig12/%d/basic", i)),
			boot(p.spec(lyraCfg(p)).WithScenario(lyra.Ideal, p.Seed+100)).Named(fmt.Sprintf("fig12/%d/ideal", i)))
	}
	reps := mustSimAll(p, specs)
	t := &Table{
		ID:     "fig12",
		Title:  "Average queuing and JCT reductions on ten bootstrapped traces",
		Header: []string{"trace", "basic_q_red", "basic_jct_red", "ideal_q_red", "ideal_jct_red"},
	}
	var basicJCTReds, idealJCTReds []float64
	for i := 0; i < nBoots; i++ {
		baseRep, basicRep, idealRep := reps[3*i], reps[3*i+1], reps[3*i+2]
		basicJCTReds = append(basicJCTReds, baseRep.JCT.Mean/basicRep.JCT.Mean)
		idealJCTReds = append(idealJCTReds, baseRep.JCT.Mean/idealRep.JCT.Mean)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			fmtF(baseRep.Queue.Mean / basicRep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / basicRep.JCT.Mean),
			fmtF(baseRep.Queue.Mean / idealRep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / idealRep.JCT.Mean),
		})
	}
	basicCI := metrics.BootstrapMeanCI(basicJCTReds, 2000, 0.95, p.Seed+600)
	idealCI := metrics.BootstrapMeanCI(idealJCTReds, 2000, 0.95, p.Seed+601)
	t.Notes = append(t.Notes,
		fmt.Sprintf("95%% bootstrap CI of the mean JCT reduction: Basic [%.2f, %.2f], Ideal [%.2f, %.2f]",
			basicCI.Lo, basicCI.Hi, idealCI.Lo, idealCI.Hi),
		"paper: gains are consistent across resamples; traces dominated by weekends show smaller gains")
	return []*Table{t}
}

// Fig13 sweeps the fraction of jobs with checkpointing under loaning-only
// Lyra (reclaiming preempts jobs; checkpoints keep their progress).
func Fig13(p Params) []*Table {
	fracs := []float64{0.2, 0.5, 0.8, 1.0}
	specs := []runner.Spec{p.spec(loanOnlyCfg(p, lyra.ReclaimLyra)).Named("fig13/nockpt")}
	for _, frac := range fracs {
		specs = append(specs, p.spec(loanOnlyCfg(p, lyra.ReclaimLyra)).
			WithCheckpointFrac(frac, p.Seed+400).
			Named(fmt.Sprintf("fig13/frac=%.1f", frac)))
	}
	reps := mustSimAll(p, specs)
	noCkpt := reps[0]
	t := &Table{
		ID:     "fig13",
		Title:  "Impact of checkpointing fraction (loaning-only Lyra, vs the no-checkpoint default)",
		Header: []string{"ckpt_frac", "q_mean", "jct_mean", "jct_reduction_vs_nockpt", "preempt_ratio"},
	}
	for i, frac := range fracs {
		rep := reps[i+1]
		t.Rows = append(t.Rows, []string{
			fmtF(frac),
			fmtS(rep.Queue.Mean), fmtS(rep.JCT.Mean),
			fmtF(noCkpt.JCT.Mean / rep.JCT.Mean),
			fmtPct(rep.PreemptionRatio),
		})
	}
	t.Notes = append(t.Notes, "paper: prevalent checkpointing consistently improves Lyra (JCT reduced ~1.24x at 80% checkpointing)")
	return []*Table{t}
}

// Table8 regenerates the queuing/JCT percentile table for the
// elastic-scaling schemes in the Basic scenario.
func Table8(p Params) []*Table {
	names := []string{"Baseline", "Gandiva", "AFS", "Pollux", "Lyra", "Lyra+TunedJobs"}
	specs := []runner.Spec{
		p.spec(baselineCfg(p)),
		p.spec(elasticOnlyCfg(p, lyra.SchedGandiva)),
		p.spec(elasticOnlyCfg(p, lyra.SchedAFS)),
		p.spec(elasticOnlyCfg(p, lyra.SchedPollux)),
		p.spec(elasticOnlyCfg(p, lyra.SchedLyra)),
		p.spec(lyraTunedCfg(p)),
	}
	for i := range specs {
		specs[i] = specs[i].Named("table8/" + names[i])
	}
	reps := mustSimAll(p, specs)
	t := &Table{
		ID:     "table8",
		Title:  "Queuing time and JCT percentiles (elastic scaling, Basic)",
		Header: []string{"scheme", "q_p50", "q_p75", "q_p95", "q_p99", "jct_p50", "jct_p75", "jct_p95", "jct_p99"},
	}
	for i, rep := range reps {
		t.Rows = append(t.Rows, []string{
			names[i],
			fmtS(rep.Queue.P50), fmtS(rep.Queue.P75), fmtS(rep.Queue.P95), fmtS(rep.Queue.P99),
			fmtS(rep.JCT.P50), fmtS(rep.JCT.P75), fmtS(rep.JCT.P95), fmtS(rep.JCT.P99),
		})
	}
	t.Notes = append(t.Notes, "paper shape: Lyra best among untuned schemes at every percentile; tuning adds further tail gains")
	return []*Table{t}
}

// Table9 regenerates the prediction-error sensitivity: reductions over
// Baseline with 20/40/60% of estimates wrong by up to 25%.
func Table9(p Params) []*Table {
	fracs := []float64{0, 0.2, 0.4, 0.6}
	specs := []runner.Spec{p.spec(baselineCfg(p)).Named("table9/baseline")}
	for _, frac := range fracs {
		cfg := elasticOnlyCfg(p, lyra.SchedLyra)
		cfg.FracWrongEstimate = frac
		cfg.MaxEstimateError = 0.25
		specs = append(specs, p.spec(cfg).Named(fmt.Sprintf("table9/frac=%.1f", frac)))
	}
	reps := mustSimAll(p, specs)
	baseRep := reps[0]
	t := &Table{
		ID:     "table9",
		Title:  "Reductions vs Baseline with wrong running-time estimates (error margin <= 25%)",
		Header: []string{"frac_wrong", "queuing_reduction", "jct_reduction"},
	}
	for i, frac := range fracs {
		rep := reps[i+1]
		t.Rows = append(t.Rows, []string{
			fmtPct(frac),
			fmtF(baseRep.Queue.Mean / rep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / rep.JCT.Mean),
		})
	}
	t.Notes = append(t.Notes, "paper: gains are robust up to 60% wrong predictions (2.21x/1.52x at 20%, 1.76x/1.38x at 60%)")
	return []*Table{t}
}

// Fig14_15 sweeps the elastic-job fraction (20% to 100%) and reports the
// queuing and JCT reductions of every elastic-scaling scheme over Baseline,
// as one batched submission of thirty runs.
func Fig14_15(p Params) []*Table {
	schemes := []struct {
		name string
		cfg  lyra.Config
	}{
		{"Gandiva", elasticOnlyCfg(p, lyra.SchedGandiva)},
		{"AFS", elasticOnlyCfg(p, lyra.SchedAFS)},
		{"Pollux", elasticOnlyCfg(p, lyra.SchedPollux)},
		{"Lyra", elasticOnlyCfg(p, lyra.SchedLyra)},
		{"Lyra+Tuned", lyraTunedCfg(p)},
	}
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var specs []runner.Spec
	for _, frac := range fracs {
		specs = append(specs, p.spec(baselineCfg(p)).
			WithElasticFrac(frac, p.Seed+500).
			Named(fmt.Sprintf("fig1415/baseline/frac=%.1f", frac)))
		for _, s := range schemes {
			specs = append(specs, p.spec(s.cfg).
				WithElasticFrac(frac, p.Seed+500).
				Named(fmt.Sprintf("fig1415/%s/frac=%.1f", s.name, frac)))
		}
	}
	reps := mustSimAll(p, specs)
	queueT := &Table{
		ID:     "fig14",
		Title:  "Queuing-time reduction vs Baseline as the elastic-job fraction grows",
		Header: []string{"elastic_frac"},
	}
	jctT := &Table{
		ID:     "fig15",
		Title:  "JCT reduction vs Baseline as the elastic-job fraction grows",
		Header: []string{"elastic_frac"},
	}
	for _, s := range schemes {
		queueT.Header = append(queueT.Header, s.name)
		jctT.Header = append(jctT.Header, s.name)
	}
	perFrac := 1 + len(schemes)
	for fi, frac := range fracs {
		baseRep := reps[fi*perFrac]
		qRow := []string{fmtF(frac)}
		jRow := []string{fmtF(frac)}
		for si := range schemes {
			rep := reps[fi*perFrac+1+si]
			qRow = append(qRow, fmtF(baseRep.Queue.Mean/rep.Queue.Mean))
			jRow = append(jRow, fmtF(baseRep.JCT.Mean/rep.JCT.Mean))
		}
		queueT.Rows = append(queueT.Rows, qRow)
		jctT.Rows = append(jctT.Rows, jRow)
	}
	note := "paper: all schemes improve with more elastic jobs; Lyra delivers the largest gains"
	queueT.Notes = append(queueT.Notes, note)
	jctT.Notes = append(jctT.Notes, note)
	return []*Table{queueT, jctT}
}

// Fig16 reruns the elastic-fraction sweep with non-linear (imperfect)
// scaling, reporting Lyra's queuing and JCT reductions with linear results
// alongside. The baseline and linear runs are shared with Figures 14-15
// when one pool serves both experiments.
func Fig16(p Params) []*Table {
	nl := elasticOnlyCfg(p, lyra.SchedLyra)
	nl.Scaling.PerWorkerLoss = 0.2
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var specs []runner.Spec
	for _, frac := range fracs {
		specs = append(specs,
			p.spec(baselineCfg(p)).WithElasticFrac(frac, p.Seed+500).Named(fmt.Sprintf("fig16/baseline/frac=%.1f", frac)),
			p.spec(nl).WithElasticFrac(frac, p.Seed+500).Named(fmt.Sprintf("fig16/nonlinear/frac=%.1f", frac)),
			p.spec(elasticOnlyCfg(p, lyra.SchedLyra)).WithElasticFrac(frac, p.Seed+500).Named(fmt.Sprintf("fig16/linear/frac=%.1f", frac)))
	}
	reps := mustSimAll(p, specs)
	t := &Table{
		ID:     "fig16",
		Title:  "Lyra with non-linear scaling across elastic-job fractions",
		Header: []string{"elastic_frac", "q_red_nonlinear", "jct_red_nonlinear", "q_red_linear", "jct_red_linear"},
	}
	for i, frac := range fracs {
		baseRep, nlRep, linRep := reps[3*i], reps[3*i+1], reps[3*i+2]
		t.Rows = append(t.Rows, []string{
			fmtF(frac),
			fmtF(baseRep.Queue.Mean / nlRep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / nlRep.JCT.Mean),
			fmtF(baseRep.Queue.Mean / linRep.Queue.Mean),
			fmtF(baseRep.JCT.Mean / linRep.JCT.Mean),
		})
	}
	t.Notes = append(t.Notes, "paper: <5% JCT impact below 50% elastic jobs, growing to ~9% when elastic jobs dominate")
	return []*Table{t}
}
