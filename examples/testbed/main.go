// Testbed example: drive the prototype runtime with a handful of jobs and
// watch the moving parts — containers launching with latency, an elastic
// job's controller gating training on its ready workers, the
// orchestrator loaning and reclaiming servers by moving them between the
// two schedulers' pools (§6's whitelist update).
package main

import (
	"fmt"
	"log"

	"lyra"
	"lyra/internal/cluster"
	"lyra/internal/trace"
)

func main() {
	workload := trace.GenerateTestbed(11, 40)
	fmt.Printf("testbed workload: %d jobs over an 8-hour window\n", len(workload.Jobs))

	// The same Config a simulation takes: full Lyra (SJF+MCKP, elastic
	// scaling, loaning with the knapsack reclaim) on the §7.5 cluster.
	cfg := lyra.DefaultConfig()
	cfg.Cluster = cluster.TestbedConfig() // 4x V100 + 4x T4 servers, 64 GPUs
	cfg.Seed = 11
	res, err := lyra.RunTestbed(cfg, workload, lyra.TestbedOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncompleted %d/%d jobs\n", res.Completed, res.Total)
	fmt.Printf("queuing: mean=%.0fs p95=%.0fs   JCT: mean=%.0fs p95=%.0fs\n",
		res.Queue.Mean, res.Queue.P95, res.JCT.Mean, res.JCT.P95)
	proto := res.Raw.Prototype
	fmt.Printf("containers: %d launched, %d killed (scale-ins and reclaims)\n",
		proto.ContainersLaunched, proto.ContainersKilled)
	fmt.Printf("elastic scaling operations: %d\n", res.ScalingOps)
	fmt.Printf("orchestrator: %d reclaim operations, %d preemptions (%.1f%%)\n",
		res.Raw.ReclaimOps, res.Preemptions, 100*res.PreemptionRatio)
	fmt.Printf("final whitelists: lyra controls %d servers, inference %d\n", proto.LyraServers, proto.InferenceServers)
}
