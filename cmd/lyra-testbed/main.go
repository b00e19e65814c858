// Command lyra-testbed runs the prototype runtime end-to-end: the 64-GPU
// testbed cluster of §7.5, worker containers with launch latency, per-job
// elastic controllers, the orchestrator loaning and reclaiming servers by
// moving them between the two schedulers' pools (§6's whitelist update),
// and the production scheduling code driving it all tick by tick on
// simulated time. The testbed is inherently single-cluster (one training
// + one inference pool, as deployed in §7.5); sharded multi-cluster
// topologies (DESIGN.md §14) run in the simulator via lyra-sim
// -training-shards or a spec shards: block.
//
//	lyra-testbed -scheme lyra
//	lyra-testbed -scheme fifo -jobs 60 -audit
package main

import (
	"flag"
	"fmt"
	"os"

	"lyra"
	"lyra/internal/cliflags"
	"lyra/internal/cluster"
	"lyra/internal/trace"
)

func main() {
	g := cliflags.New("lyra-testbed", flag.CommandLine)
	g.SchemeFlag("lyra", false)
	g.ReclaimFlag("lyra", "none")
	g.SeedFlag("")
	g.AuditFlag("tick")
	g.EventsFlag("job lifecycle, tick epochs, container transitions")
	g.FaultFlags("mtbf=3600,mttr=300,launchfail=0.05")
	g.ProfFlags()
	jobs := flag.Int("jobs", 180, "number of jobs in the scaled trace")
	flag.Parse()
	if err := g.StartPprof(); err != nil {
		g.Fatal(err)
	}

	faultPlan, err := g.Plan()
	if err != nil {
		g.Fatal(err)
	}
	cfg := lyra.Config{
		Cluster:   cluster.TestbedConfig(),
		Scheduler: lyra.SchedulerKind(g.Scheme),
		Elastic:   true,
		Loaning:   g.Reclaim != "none",
		Reclaim:   lyra.ReclaimKind(g.Reclaim),
		Audit:     g.Audit,
		Events:    g.Events != "",
		Faults:    faultPlan,
		Seed:      g.Seed,
	}
	tr := trace.GenerateTestbed(g.Seed, *jobs)

	pr := g.Collector().NewProfiler("testbed/" + g.Scheme)
	rsp := pr.Start("run")
	res, err := lyra.RunTestbed(cfg, tr, lyra.TestbedOptions{})
	rsp.End()
	if err != nil {
		g.Fatal(err)
	}
	if g.Events != "" {
		if err := os.WriteFile(g.Events, res.Events, 0o644); err != nil {
			g.Fatal(err)
		}
	}

	fmt.Printf("jobs: %d submitted, %d completed\n", res.Total, res.Completed)
	fmt.Printf("queuing  mean=%.0fs median=%.0fs p95=%.0fs\n", res.Queue.Mean, res.Queue.P50, res.Queue.P95)
	fmt.Printf("JCT      mean=%.0fs median=%.0fs p95=%.0fs\n", res.JCT.Mean, res.JCT.P50, res.JCT.P95)
	fmt.Printf("dynamics preemptions=%d (%.1f%%) scaling-ops=%d collateral=%.1f%%\n",
		res.Preemptions, 100*res.PreemptionRatio, res.ScalingOps, 100*res.CollateralDamage)
	proto := res.Raw.Prototype
	fmt.Printf("runtime  containers launched=%d killed=%d; reclaim ops=%d\n",
		proto.ContainersLaunched, proto.ContainersKilled, res.Raw.ReclaimOps)
	if faultPlan.Enabled() {
		fmt.Printf("faults   crashes=%d recoveries=%d lost-capacity=%.0fgpu-s launch-failures=%d\n",
			res.Crashes, res.Recoveries, res.LostCapacityGPUSec, proto.LaunchFailures)
	}
	fmt.Printf("whitelists at exit: lyra=%d servers, inference=%d servers\n", proto.LyraServers, proto.InferenceServers)
	if err := g.FinishProf(os.Stdout); err != nil {
		g.Fatal(err)
	}
}
