package lyra_test

// Scale benchmarks for the indexed cluster core: BenchmarkEpoch drives the
// full Lyra scheduler (epoch loop, placement, loaning) over a one-day trace
// at three scales. Together with BenchmarkBestFit (internal/place: one
// placement's Cluster.EachFit walk and commit, and a gang that fits
// nowhere) these are working benchmarks for `go test -bench`; the recorded, gated numbers
// are the repository benchmark's (BENCHMARK.json, benchmark/README.md),
// whose scale-faulted workload is the 100x-faulted tier here.

import (
	"testing"

	"lyra"
)

// BenchmarkEpoch runs one simulation per iteration and reports ns/epoch —
// wall time per scheduling epoch, the number the dirty-set scheduling layer
// is accountable for. The 1x and 10x tiers are historical (44+52 and
// 440+520 servers, one tenth and one times the paper's production cluster)
// and run to completion. The 100x tier is one hundred times the paper's
// 443+520-server production cluster — 44,300 training plus 52,000 inference
// servers, ~770k GPUs, with the offered load calibrated to its 354,400
// training GPUs — far too large to drain, so MaxTime caps it at a fixed
// window of simulated epochs; the target is sub-second per epoch.
func BenchmarkEpoch(b *testing.B) {
	tiers := []struct {
		name                 string
		training, inference  int
		traceGPUs            int
		maxTime, maxTimeShrt float64
		faulted              bool
	}{
		{"1x", 44, 52, 352, 0, 0, false},
		{"10x", 440, 520, 3520, 0, 0, false},
		{"100x", 44300, 52000, 354400, 7200, 1800, false},
		// The faulted tier layers a crash-heavy correlated plan plus the
		// degraded-mode policies over the same 100x window: the fault
		// timeline is pre-generated, so the marginal cost per epoch is the
		// crash/recover/backoff event handling the guard budget covers.
		{"100x-faulted", 44300, 52000, 354400, 7200, 1800, true},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			maxTime := tier.maxTime
			if testing.Short() && tier.maxTimeShrt > 0 {
				maxTime = tier.maxTimeShrt
			}
			tcfg := lyra.DefaultTraceConfig(1)
			tcfg.Days = 1
			tcfg.TrainingGPUs = tier.traceGPUs
			tr := lyra.GenerateTrace(tcfg)
			cfg := lyra.DefaultConfig()
			cfg.Cluster = lyra.ClusterConfig{
				TrainingServers:  tier.training,
				InferenceServers: tier.inference,
			}
			cfg.MaxTime = maxTime
			if tier.faulted {
				cfg.Faults = lyra.FaultPlan{Seed: 3, ServerMTBF: 86400, ServerMTTR: 600,
					RackOutMTBF: 43200, RackMTTR: 900}
				cfg.RestartBackoff = true
				cfg.QuarantineHysteresis = true
				cfg.EmergencyReclaim = true
			}
			b.ReportAllocs()
			b.ResetTimer()
			var epochs int64
			for i := 0; i < b.N; i++ {
				rep, err := lyra.Run(cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				epochs += rep.Raw.SchedEpochs
			}
			if epochs > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
			}
		})
	}
}
