package lyra

import (
	"lyra/internal/arbiter"
	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/orchestrator"
	"lyra/internal/sim"
)

// splitServers deals total servers across n shards: every shard gets an
// even share, with the remainder going to the lowest-ID shards. The split
// is positional — shard i's servers are the next counts[i] IDs of the
// global sequence — so shard ID ranges are contiguous and a 1+1 topology
// reproduces the unsharded ID layout exactly.
func splitServers(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

// shardedEngine carves the configured cluster into per-shard indexed
// clusters over contiguous global ID ranges (training shards first, then
// inference shards, matching the unsharded layout), instantiates one
// scheduler per training shard and one loan targeter per inference shard,
// and seats the global capacity arbitrator.
func shardedEngine(cfg Config, tr *Trace, simCfg sim.Config) *sim.Engine {
	cc := cfg.Cluster
	if cc.GPUsPerServer == 0 {
		cc.GPUsPerServer = cluster.DefaultGPUsPerServer
	}
	// The parent resolves the GPU-type default (V100 training implies T4
	// inference) once, then passes both types to every shard explicitly,
	// so a training-only shard cluster cannot re-trigger the rule.
	if cc.TrainingGPU == cluster.V100 && cc.InferenceGPU == cluster.V100 {
		cc.InferenceGPU = cluster.T4
	}

	// Reference topology of the full unsharded shape: fault timelines key
	// their per-server draws on global server IDs and domain streams on
	// this topology's rack/zone indexes, so a sharded run draws the exact
	// fault schedule the unsharded run does.
	refTopo := cluster.New(cfg.Cluster)

	trainCounts := splitServers(cc.TrainingServers, cfg.TrainingShards)
	infCounts := splitServers(cc.InferenceServers, cfg.InferenceShards)
	firstID := 0
	shard := func(training, inference, id int) *cluster.Cluster {
		c := cluster.New(cluster.Config{
			TrainingServers: training, InferenceServers: inference, GPUsPerServer: cc.GPUsPerServer,
			TrainingGPU: cc.TrainingGPU, InferenceGPU: cc.InferenceGPU,
			RackSize: cc.RackSize, ZoneRacks: cc.ZoneRacks,
			FirstID: firstID, Shard: id,
		})
		firstID += training + inference
		return c
	}
	trainCls := make([]*cluster.Cluster, 0, cfg.TrainingShards)
	infCls := make([]*cluster.Cluster, 0, cfg.InferenceShards)
	for i, cnt := range trainCounts {
		trainCls = append(trainCls, shard(cnt, 0, i))
	}
	for m, cnt := range infCounts {
		infCls = append(infCls, shard(0, cnt, cfg.TrainingShards+m))
	}

	// One scheduler instance per training shard, each over purely local
	// shard state.
	scheds := make([]sim.Scheduler, cfg.TrainingShards)
	for n := range scheds {
		scheds[n] = schedulerRegistry[cfg.Scheduler](cfg)
	}

	targets := make([]orchestrator.LoanTargeter, cfg.InferenceShards)
	infUtil := make([]func(int64) float64, cfg.InferenceShards)
	for m := range targets {
		var is *inference.Scheduler
		is, targets[m] = inferenceSide(cfg, tr.Horizon, infCounts[m], m, 1, simCfg.Prof)
		infUtil[m] = is.UtilizationAt
	}

	// The arbiter always routes; it only brokers loans when loaning is on
	// (Orchestrate gates the epoch, mirroring the one-state nil
	// orchestrator).
	arb := arbiter.New(nil, nil, scheds[0].Less)
	if cfg.Loaning {
		arb.Targets = targets
		arb.Loans = loanProtocol(cfg, scheds[0].Less)
	}

	return sim.NewSharded(sim.ShardedConfig{
		Train: trainCls, Inf: infCls, Scheds: scheds, Arbiter: arb,
		Orchestrate: cfg.Loaning, RefTopo: refTopo, InfUtil: infUtil,
	}, tr.Jobs, tr.Horizon, simCfg)
}
