package lyra_test

import (
	"fmt"
	"log"

	"lyra"
	"lyra/internal/cluster"
	"lyra/internal/trace"
)

// ExampleRun synthesizes a production-like workload and replays it under
// the FIFO baseline and under full Lyra (capacity loaning and elastic
// scaling) on a 32+32-server cluster.
func ExampleRun() {
	traceCfg := lyra.DefaultTraceConfig(42)
	traceCfg.Days = 2
	traceCfg.TrainingGPUs = 256
	workload := lyra.GenerateTrace(traceCfg)

	for _, cfg := range []lyra.Config{lyra.BaselineConfig(), lyra.DefaultConfig()} {
		cfg.Cluster = lyra.ClusterConfig{TrainingServers: 32, InferenceServers: 32}
		report, err := lyra.Run(cfg, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %d/%d jobs  queuing mean %5.0f s  JCT mean %5.0f s  on loan %d\n",
			cfg.Scheduler, report.Completed, report.Total, report.Queue.Mean, report.JCT.Mean, report.OnLoanQueue.N)
	}
	// Output:
	// fifo  340/340 jobs  queuing mean  5354 s  JCT mean 21426 s  on loan 0
	// lyra  340/340 jobs  queuing mean  2891 s  JCT mean 18030 s  on loan 6
}

// ExampleRunTestbed drives the prototype runtime on the §7.5 testbed
// cluster. It takes the Config a simulation takes and returns the same
// Report; Report.Raw.Prototype adds what only the prototype counts.
func ExampleRunTestbed() {
	cfg := lyra.DefaultConfig()
	cfg.Cluster = cluster.TestbedConfig() // 4x V100 + 4x T4 servers, 64 GPUs
	rep, err := lyra.RunTestbed(cfg, trace.GenerateTestbed(11, 40), lyra.TestbedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	proto := rep.Raw.Prototype
	fmt.Printf("%d/%d jobs  queuing mean %.0f s  JCT mean %.0f s\n", rep.Completed, rep.Total, rep.Queue.Mean, rep.JCT.Mean)
	fmt.Printf("containers: %d launched, %d killed; scaling ops %d\n", proto.ContainersLaunched, proto.ContainersKilled, rep.ScalingOps)
	fmt.Printf("servers at exit: lyra %d, inference %d\n", proto.LyraServers, proto.InferenceServers)
	// Output:
	// 40/40 jobs  queuing mean 4 s  JCT mean 985 s
	// containers: 85 launched, 0 killed; scaling ops 10
	// servers at exit: lyra 4, inference 4
}
