package lyra

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestCappedRunCostsNothingPastTheCap runs one capped config over a long
// trace and over a copy of it cut at a later arrival, with the horizon
// kept. Both hold jobs past MaxTime, so both runs decide the same: the
// reports agree on every field but Total and PreemptionRatio, which count
// the whole trace. And the jobs past the cap, over 5,000 more in the long
// trace, are neither copied nor loaded: the two runs allocate within 64 KB
// of each other (best of two).
func TestCappedRunCostsNothingPastTheCap(t *testing.T) {
	tcfg := DefaultTraceConfig(6)
	tcfg.Days = 20
	tcfg.TrainingGPUs = 512
	long := GenerateTrace(tcfg)
	cut := *long
	for i, j := range long.Jobs {
		if j.Arrival > 2*86400 {
			cut.Jobs = long.Jobs[:i]
			break
		}
	}
	cfg := DefaultConfig()
	cfg.Cluster = ClusterConfig{TrainingServers: 64, InferenceServers: 64}
	cfg.MaxTime = 6 * 3600
	past := func(tr *Trace) (n int) {
		for _, j := range tr.Jobs {
			if float64(j.Arrival) > cfg.MaxTime {
				n++
			}
		}
		return n
	}
	if past(&cut) == 0 || len(long.Jobs)-len(cut.Jobs) < 5000 {
		t.Fatalf("%d jobs past the cap in the cut trace, %d more in the long one: want some, and 5,000 more",
			past(&cut), len(long.Jobs)-len(cut.Jobs))
	}

	run := func(tr *Trace) (*Report, uint64) {
		var rep *Report
		best := uint64(math.MaxUint64)
		for range 2 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := Run(cfg, tr)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			rep, best = r, min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return rep, best
	}
	longRep, longBytes := run(long)
	cutRep, cutBytes := run(&cut)

	if longRep.Total != len(long.Jobs) || cutRep.Total != len(cut.Jobs) {
		t.Errorf("Total %d and %d, the traces hold %d and %d jobs", longRep.Total, cutRep.Total, len(long.Jobs), len(cut.Jobs))
	}
	strip := func(r *Report) string {
		c := *r
		c.Raw, c.Prof, c.Events, c.Total, c.PreemptionRatio = nil, nil, nil, 0, 0
		return fmt.Sprintf("%+v", c)
	}
	if a, b := strip(longRep), strip(cutRep); a != b {
		t.Errorf("the runs decide differently:\nlong %s\n cut %s", a, b)
	}
	if d := int64(longBytes) - int64(cutBytes); d <= -64<<10 || d >= 64<<10 {
		t.Errorf("the long trace's run allocates %d bytes, the cut one's %d: %+d for %d jobs that never arrive",
			longBytes, cutBytes, d, len(long.Jobs)-len(cut.Jobs))
	}
}
