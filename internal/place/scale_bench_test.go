package place_test

import (
	"fmt"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	. "lyra/internal/place"
)

// benchCluster builds a production-shaped cluster at the given scale
// multiplier (1x = the paper's 443 training + 520 inference servers), loans
// a quarter of the inference pool, and fills the training pool with a
// deterministic mix of partial allocations so best-fit has real buckets to
// discriminate between: servers at every free count, plus a band of empty
// ones.
func benchCluster(scale int) (*cluster.Cluster, cluster.Config) {
	cfg := cluster.Config{TrainingServers: 443 * scale, InferenceServers: 520 * scale}
	c := cluster.New(cfg)
	for i := 0; i < cfg.InferenceServers/4; i++ {
		if err := c.Move(cfg.TrainingServers+i, cluster.PoolOnLoan); err != nil {
			panic(err)
		}
	}
	id := 1
	for i := 0; i < cfg.TrainingServers; i++ {
		if i%5 == 4 {
			continue // leave every fifth server empty
		}
		gpus := 1 + (i*3)%7 // free counts 1..7 spread across the pool
		if err := c.Server(i).Allocate(id, gpus, i%3 == 0); err != nil {
			panic(err)
		}
		id++
	}
	return c, cfg
}

// BenchmarkBestFit measures one best-fit placement, a Cluster.EachFit walk
// and its commit (plus the matching release, so the cluster state is
// identical every iteration), at 1x, 10x and 100x the paper's server count
// (the repository benchmark's place.Gang layer metric times the same kernel
// on each workload's own cluster shape). A 1-GPU worker always lands on a server already hosting work; a whole-server
// worker fits none of those and falls through to the idle servers, the case
// that cost a scan of every empty server while only the first was measured.
// The nofit rows ask for a gang of whole-server workers one larger than the
// training pool's empty servers: it fits nowhere, and the walk that finds
// out visits every empty server and changes nothing, where placing the
// workers one by one allocated each of them and released them all again.
func BenchmarkBestFit(b *testing.B) {
	for _, gpus := range []int{1, cluster.DefaultGPUsPerServer} {
		for _, scale := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%dgpu/%dx", gpus, scale), func(b *testing.B) {
				c, _ := benchCluster(scale)
				j := job.New(1000000, 0, job.Generic, gpus, 1, 1, 3600)
				opt := PreferTraining(true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws := AppendUpTo(nil, c, j, 1, opt)
					if len(ws) != 1 {
						b.Fatalf("placed %d workers, want 1", len(ws))
					}
					if err := c.Server(ws[0].Server).Release(j.ID, ws[0].GPUs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, scale := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("nofit/%dx", scale), func(b *testing.B) {
			c, _ := benchCluster(scale)
			n := c.PoolSize(cluster.PoolTraining) - c.BusyServers(cluster.PoolTraining) + 1
			j := job.New(1000000, 0, job.Generic, cluster.DefaultGPUsPerServer, n, n, 3600)
			dst := make([]job.Worker, 0, n)
			opt := PreferTraining(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ws, ok := AppendGang(dst, c, j, n, opt); ok {
					b.Fatalf("a gang of %d whole servers placed %d workers", n, len(ws))
				}
			}
		})
	}
}
