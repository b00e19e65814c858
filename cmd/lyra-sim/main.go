// Command lyra-sim runs single cluster simulations: one or more schemes
// over one synthesized (or CSV-loaded) trace, printing the summary
// statistics the paper's tables report. The configuration is validated
// before any trace is synthesized or loaded, so a typo in -scheme,
// -reclaim or -scenario fails in milliseconds with the valid values listed.
//
// Declarative scenario specs (cluster, trace, workload mix, fault plan,
// scheme matrix, SLO assertions) run through cmd/lyra-matrix.
//
// Usage examples:
//
//	lyra-sim -scheme lyra -days 4 -training-servers 56 -inference-servers 64
//	lyra-sim -scheme baseline -days 15 -training-servers 443 -inference-servers 520
//	lyra-sim -scheme lyra -elastic=false -reclaim scf
//	lyra-sim -trace-csv trace.csv -scheme pollux -loaning=false
//	lyra-sim -scheme lyra,fifo,gandiva,afs,pollux -parallel 4
//	lyra-sim -scheme lyra -faults "mtbf=21600,mttr=600,straggler=0.1"
//	lyra-sim -scheme lyra -training-shards 2 -inference-shards 2   # arbitrated shards (DESIGN.md §14)
//	lyra-sim -scheme lyra -prof -trace out.json   # self-timing report + Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"

	"lyra"
	"lyra/internal/cliflags"
	"lyra/internal/runner"
	"lyra/internal/trace"
)

func main() {
	g := cliflags.New("lyra-sim", flag.CommandLine)
	g.SchemeFlag("lyra", true)
	g.ReclaimFlag("lyra")
	g.SeedFlag("")
	g.ParallelFlag("simulations when fanning out over schemes")
	g.AuditFlag("event")
	g.EventsFlag("single scheme only")
	g.FaultFlags("mtbf=21600,mttr=600,straggler=0.1")
	g.ShardFlags()
	g.ProfFlags()
	var (
		loaning   = flag.Bool("loaning", true, "enable capacity loaning")
		elastic   = flag.Bool("elastic", true, "enable elastic scaling (lyra scheduler)")
		tuned     = flag.Bool("tuned", false, "attach the hyperparameter-tuning job agent")
		scenario  = flag.String("scenario", "basic", "scenario: baseline, basic, advanced, heterogeneous, ideal")
		days      = flag.Int("days", 4, "trace length in days")
		trainSrv  = flag.Int("training-servers", 56, "8-GPU training servers")
		infSrv    = flag.Int("inference-servers", 64, "8-GPU inference servers")
		load      = flag.Float64("load", 0.83, "offered load factor")
		traceFile = flag.String("trace-csv", "", "read the trace from this CSV instead of synthesizing")
		loss      = flag.Float64("scaling-loss", 0, "per-worker throughput loss (imperfect scaling)")
		proactive = flag.Bool("proactive", false, "LSTM-forecast-driven (proactive) reclaiming")
		agnostic  = flag.Bool("info-agnostic", false, "least-attained-service order instead of SJF (no runtime estimates)")
	)
	flag.Parse()
	if err := g.StartPprof(); err != nil {
		g.Fatal(err)
	}

	// Validate everything BEFORE synthesizing or loading a trace: a typo
	// should not cost a multi-second trace generation first.
	kind := lyra.ScenarioKind(*scenario)
	if !kind.Valid() {
		g.Fatal(fmt.Errorf("unknown scenario %q (valid: %v)", *scenario, lyra.Scenarios()))
	}
	faultPlan, err := g.Plan()
	if err != nil {
		g.Fatal(err)
	}
	schemes := g.Schemes()
	if len(schemes) == 0 {
		g.Usage("-scheme needs at least one scheduler")
	}
	if g.Events != "" && len(schemes) > 1 {
		g.Usage("-events records one stream: pick a single -scheme (got %d)", len(schemes))
	}
	cfgs := make([]lyra.Config, len(schemes))
	for i, s := range schemes {
		cfg := lyra.Config{
			Cluster:          lyra.ClusterConfig{TrainingServers: *trainSrv, InferenceServers: *infSrv},
			Scheduler:        lyra.SchedulerKind(s),
			Elastic:          *elastic,
			Loaning:          *loaning,
			Reclaim:          lyra.ReclaimKind(g.Reclaim),
			Tuned:            *tuned,
			ProactiveReclaim: *proactive,
			InfoAgnostic:     *agnostic,
			Audit:            g.Audit,
			Events:           g.Events != "",
			Faults:           faultPlan,
			TrainingShards:   g.TrainingShards,
			InferenceShards:  g.InferenceShards,
			Seed:             g.Seed,
		}
		cfg.Scaling.PerWorkerLoss = *loss
		if *tuned || cfg.Scheduler == lyra.SchedPollux {
			cfg.Scaling.TunedGain = 0.08
		}
		if err := cfg.Validate(); err != nil {
			g.Fatal(err)
		}
		cfgs[i] = cfg
	}

	if *traceFile != "" {
		// CSV traces live outside the runner's declarative trace model;
		// run them directly (one scheme at a time).
		f, err := os.Open(*traceFile)
		if err != nil {
			g.Fatal(err)
		}
		tr, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			g.Fatal(err)
		}
		for i, cfg := range cfgs {
			trc := tr.Clone()
			kind.Apply(&cfg, trc, g.Seed+100)
			rep, err := lyra.RunProfiled(cfg, trc, g.Collector().NewProfiler(schemes[i]))
			if err != nil {
				g.Fatal(err)
			}
			writeEvents(g, rep)
			report(schemes[i], len(schemes) > 1, rep)
		}
		finishProf(g)
		return
	}

	gen := lyra.DefaultTraceConfig(g.Seed)
	gen.Days = *days
	gen.TrainingGPUs = *trainSrv * 8
	gen.LoadFactor = *load

	pool := runner.New(g.Parallel)
	pool.Profile(g.Collector())
	specs := make([]runner.Spec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = runner.NewSpec(cfg, gen).WithScenario(kind, g.Seed+100).Named(schemes[i])
	}
	reps, err := pool.SimAll(specs)
	if err != nil {
		g.Fatal(err)
	}
	for i, rep := range reps {
		writeEvents(g, rep)
		report(schemes[i], len(schemes) > 1, rep)
	}
	finishProf(g)
}

// finishProf flushes the -trace / -prof / pprof outputs; a flush failure is
// fatal (a requested trace that was not written must not exit 0).
func finishProf(g *cliflags.Group) {
	if err := g.FinishProf(os.Stdout); err != nil {
		g.Fatal(err)
	}
}

// writeEvents dumps a report's JSONL event stream to the -events path, if
// requested.
func writeEvents(g *cliflags.Group, rep *lyra.Report) {
	if g.Events == "" {
		return
	}
	if err := os.WriteFile(g.Events, rep.Events, 0o644); err != nil {
		g.Fatal(err)
	}
}

func report(scheme string, labelled bool, rep *lyra.Report) {
	if labelled {
		fmt.Printf("-- %s --\n", scheme)
	}
	fmt.Printf("jobs: %d submitted, %d completed\n", rep.Total, rep.Completed)
	fmt.Printf("queuing  mean=%.0fs median=%.0fs p95=%.0fs p99=%.0fs\n",
		rep.Queue.Mean, rep.Queue.P50, rep.Queue.P95, rep.Queue.P99)
	fmt.Printf("JCT      mean=%.0fs median=%.0fs p95=%.0fs p99=%.0fs\n",
		rep.JCT.Mean, rep.JCT.P50, rep.JCT.P95, rep.JCT.P99)
	fmt.Printf("usage    training=%.2f overall=%.2f on-loan=%.2f\n",
		rep.TrainUsage, rep.OverallUsage, rep.OnLoanUsage)
	fmt.Printf("dynamics preemptions=%d (%.2f%%) scaling-ops=%d collateral=%.2f%% flex-satisfied=%.1f%%\n",
		rep.Preemptions, 100*rep.PreemptionRatio, rep.ScalingOps,
		100*rep.CollateralDamage, 100*rep.FlexSatisfiedShare)
	if rep.Crashes > 0 || rep.Recoveries > 0 {
		fmt.Printf("faults   crashes=%d recoveries=%d lost-capacity=%.0fgpu-s\n",
			rep.Crashes, rep.Recoveries, rep.LostCapacityGPUSec)
	}
}
