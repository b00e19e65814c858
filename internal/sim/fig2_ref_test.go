package sim

import (
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/job"
)

// firstTryRef is Figure 2's reference. It wraps a scheduler without
// declaring Memoryless, so the engine runs every epoch, and after each inner
// Schedule it scans the state's queue for first-try misses: jobs never
// started, never preempted, that arrived less than one scheduling interval
// ago. Those arrived since the previous epoch, so this epoch was their first
// attempt. The wrappers of one run share queued, indexed by arrival hour.
type firstTryRef struct {
	Scheduler
	interval float64
	queued   []int
}

func (r firstTryRef) Schedule(st *State) {
	r.Scheduler.Schedule(st)
	for _, j := range st.Pending {
		if j.Started || j.Preemptions > 0 || st.Now-float64(j.Arrival) >= r.interval {
			continue
		}
		if h := int(j.Arrival / 3600); h < len(r.queued) {
			r.queued[h]++
		}
	}
}

// refJobs is a contended mix: up to four 4-GPU workers per job, half of them
// checkpointing, arriving over about five and a half hours.
func refJobs() []*job.Job {
	jobs := make([]*job.Job, 0, 60)
	for k := 0; k < 60; k++ {
		j := job.New(k, int64(k*337), job.Generic, 4, 1+k%4, 1+k%4, float64(900+211*k%4000))
		j.Checkpoint = k%2 == 0
		jobs = append(jobs, j)
	}
	return jobs
}

// TestHourlyQueuedRatioMatchesQueueScan runs the engine under firstTryRef
// and requires Result.HourlyQueuedRatio, which the engine reads off the job
// records, to equal the reference's scan exactly, hour by hour: one-state,
// 2+2 sharded, capped half an interval past an epoch (the job arriving at
// the cap never reaches an epoch), and under crashes with restart backoff.
func TestHourlyQueuedRatioMatchesQueueScan(t *testing.T) {
	const horizon, interval = 6 * 3600, 60
	shard := func(training, inf, firstID, id int) *cluster.Cluster {
		return cluster.New(cluster.Config{TrainingServers: training, InferenceServers: inf, FirstID: firstID, Shard: id})
	}
	crashes := &fault.Plan{Seed: 5, ServerMTBF: 3000, ServerMTTR: 300}
	for _, tc := range []struct {
		name   string
		shards bool
		cfg    Config
	}{
		{"one-state", false, Config{Audit: true}},
		{"sharded-2+2", true, Config{Audit: true}},
		{"capped", false, Config{Audit: true, MaxTime: 30 * 337}},
		{"crash-backoff", false, Config{Audit: true, Faults: crashes, BackoffBase: 60, BackoffCap: 600}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := refJobs()
			queued := make([]int, horizon/3600+1)
			ref := func() Scheduler { return firstTryRef{fifoSched{}, interval, queued} }
			tc.cfg.SchedInterval = interval
			var e *Engine
			if tc.shards {
				e = NewSharded(ShardedConfig{
					Train:   []*cluster.Cluster{shard(2, 0, 0, 0), shard(2, 0, 2, 1)},
					Inf:     []*cluster.Cluster{shard(0, 1, 4, 2), shard(0, 1, 5, 3)},
					Scheds:  []Scheduler{ref(), ref()},
					Arbiter: modRoute{},
					RefTopo: smallCluster(4, 2),
				}, jobs, horizon, tc.cfg)
			} else {
				e = New(smallCluster(4, 0), jobs, horizon, ref(), nil, tc.cfg)
			}
			res := e.Run()
			if tc.cfg.Faults != nil && res.Crashes == 0 {
				t.Fatal("the crash plan applied no crash")
			}

			arrived := make([]int, len(queued))
			for _, j := range jobs {
				if tc.cfg.MaxTime == 0 || float64(j.Arrival) <= tc.cfg.MaxTime {
					arrived[j.Arrival/3600]++
				}
			}
			misses, total := 0, 0
			for h, n := range arrived {
				want := 0.0
				if n > 0 {
					want = float64(queued[h]) / float64(n)
				}
				if got := res.HourlyQueuedRatio[h]; got != want {
					t.Errorf("hour %d: ratio %v, queue scan %d of %d = %v", h, got, queued[h], n, want)
				}
				misses += queued[h]
				total += n
			}
			if len(res.HourlyQueuedRatio) != len(queued) {
				t.Errorf("%d hours, want %d", len(res.HourlyQueuedRatio), len(queued))
			}
			if misses == 0 || misses == total {
				t.Errorf("%d first-try misses of %d arrivals: the comparison is vacuous", misses, total)
			}
		})
	}
}
