package sim

import (
	"math"
	"slices"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/place"
)

// testFIFO is a minimal memoryless scheduler for engine-level tests: start
// pending jobs in queue order wherever their gang fits.
type testFIFO struct{}

func (testFIFO) Less(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func (testFIFO) Memoryless() bool { return true }

func (testFIFO) Schedule(st *State) {
	for _, j := range st.Pending {
		if ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferTraining(true)); ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}

// forgetful is the never-skipping reference: embedding the interface hides
// the wrapped scheduler's Memoryless method, so the engine runs every epoch.
type forgetful struct{ Scheduler }

// TestSampleZeroCapacityNoNaN pins the Engine.sample fix: a degenerate
// cluster with zero schedulable capacity must not poison the overall-usage
// series with NaN/Inf samples (the InferenceUtil == nil branch used to
// divide by totTrain+totInf unguarded, and the series mean does not filter
// NaN).
func TestSampleZeroCapacityNoNaN(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 0, InferenceServers: 0})
	j := job.New(1, 0, job.Generic, 1, 1, 1, 100)
	e := New(c, []*job.Job{j}, 600, testFIFO{}, nil, Config{Audit: true, MaxTime: 900})
	res := e.Run()
	if got := res.MeanOverallUsage(); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("MeanOverallUsage = %g on a zero-capacity cluster, want a finite value", got)
	}
	if got := res.MeanOverallUsage(); got != 0 {
		t.Fatalf("MeanOverallUsage = %g, want 0 (no valid samples)", got)
	}
	for i, v := range res.OverallUsage.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("overall usage sample %d = %g, want no degenerate samples recorded", i, v)
		}
	}
}

// TestQuiescentEpochSkip asserts the dirty-set fast path actually engages —
// epochs between events where nothing changed are skipped — and that a
// skipping run finishes with exactly the same job outcomes as the never-
// skipping reference.
func TestQuiescentEpochSkip(t *testing.T) {
	mkJobs := func() []*job.Job {
		a := job.New(1, 0, job.Generic, 1, 1, 1, 900)
		b := job.New(2, 300, job.Generic, 2, 2, 2, 1200)
		c := job.New(3, 900, job.Generic, 1, 1, 1, 600)
		return []*job.Job{a, b, c}
	}
	run := func(s Scheduler) *Result {
		c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 2})
		return New(c, mkJobs(), 4000, s, nil, Config{Audit: true}).Run()
	}
	fast, ref := run(testFIFO{}), run(forgetful{testFIFO{}})
	if fast.SkippedSchedEpochs == 0 {
		t.Fatal("no scheduler epochs skipped: the quiescent fast path never engaged")
	}
	if ref.SkippedSchedEpochs != 0 {
		t.Fatalf("never-skipping reference skipped %d epochs, want 0", ref.SkippedSchedEpochs)
	}
	if fast.SchedEpochs != ref.SchedEpochs {
		t.Fatalf("sched epochs %d vs %d", fast.SchedEpochs, ref.SchedEpochs)
	}
	if fast.Completed != ref.Completed {
		t.Fatalf("completed %d vs %d", fast.Completed, ref.Completed)
	}
	for i := range fast.Jobs {
		fj, rj := fast.Jobs[i], ref.Jobs[i]
		if fj.FinishTime != rj.FinishTime || fj.QueueTime != rj.QueueTime ||
			fj.State != rj.State {
			t.Fatalf("job %d outcome diverges with skipping: %+v vs %+v", fj.ID, fj, rj)
		}
	}
}

// TestNoteFirstTryDelta pins Figure 2 across quiescent-epoch skipping: a
// run whose epochs are skipped reports the same hourly queued ratio as one
// whose epochs never are, here on a scenario where exactly one of two
// same-hour arrivals misses its first scheduling attempt. The engine reads
// the ratio off the job records; TestHourlyQueuedRatioMatchesQueueScan holds
// it to a scan of the queue at every epoch.
func TestNoteFirstTryDelta(t *testing.T) {
	mkJobs := func() []*job.Job {
		fits := job.New(1, 0, job.Generic, 1, 1, 1, 300)
		never := job.New(2, 10, job.Generic, 4, 100, 100, 300) // 400 GPUs: never placeable
		return []*job.Job{fits, never}
	}
	run := func(s Scheduler) *Result {
		c := cluster.New(cluster.Config{TrainingServers: 2, InferenceServers: 1})
		return New(c, mkJobs(), 3600, s, nil, Config{Audit: true, MaxTime: 7200}).Run()
	}
	fast, ref := run(testFIFO{}), run(forgetful{testFIFO{}})
	if len(fast.HourlyQueuedRatio) == 0 || fast.HourlyQueuedRatio[0] != 0.5 {
		t.Fatalf("delta path hourly queued ratio = %v, want [0] == 0.5", fast.HourlyQueuedRatio)
	}
	for h := range ref.HourlyQueuedRatio {
		if fast.HourlyQueuedRatio[h] != ref.HourlyQueuedRatio[h] {
			t.Fatalf("hour %d: skipping %g vs never-skipping %g",
				h, fast.HourlyQueuedRatio[h], ref.HourlyQueuedRatio[h])
		}
	}
}

// TestDrainChangedScratchReuse pins the drainChanged fix: repeated drains
// reuse one scratch buffer (no per-drain allocation) while still returning
// the changed set sorted by ID and clearing it.
func TestDrainChangedScratchReuse(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 1, InferenceServers: 0})
	st := NewState(c, job.Linear, 0)
	j1 := job.New(1, 0, job.Generic, 1, 1, 1, 100)
	j2 := job.New(2, 0, job.Generic, 1, 1, 1, 100)
	j3 := job.New(3, 0, job.Generic, 1, 1, 1, 100)

	st.markChanged(j3)
	st.markChanged(j1)
	st.markChanged(j2)
	first := st.drainChanged()
	if len(first) != 3 || first[0] != j1 || first[1] != j2 || first[2] != j3 {
		t.Fatalf("first drain = %v, want [j1 j2 j3] by ID", ids(first))
	}
	if got := st.drainChanged(); got != nil {
		t.Fatalf("second drain of a clean set = %v, want nil", ids(got))
	}

	st.markChanged(j2)
	st.markChanged(j3)
	second := st.drainChanged()
	if len(second) != 2 || second[0] != j2 || second[1] != j3 {
		t.Fatalf("drain after re-marking = %v, want [j2 j3]", ids(second))
	}
	if &first[0] != &second[0] {
		t.Fatal("drainChanged allocated a fresh buffer; want the scratch buffer reused")
	}
}

// TestDrainChangedDeduplicates pins the changed list's drain: a job marked
// three times drains once, in ID order among the others, and the drain
// leaves the list empty.
func TestDrainChangedDeduplicates(t *testing.T) {
	c := cluster.New(cluster.Config{TrainingServers: 1, InferenceServers: 0})
	st := NewState(c, job.Linear, 0)
	j1 := job.New(1, 0, job.Generic, 1, 1, 1, 100)
	j2 := job.New(2, 0, job.Generic, 1, 1, 1, 100)
	j3 := job.New(3, 0, job.Generic, 1, 1, 1, 100)
	for _, j := range []*job.Job{j2, j3, j2, j1, j2} {
		st.markChanged(j)
	}
	if got := st.drainChanged(); !slices.Equal(got, []*job.Job{j1, j2, j3}) {
		t.Fatalf("drain = %v, want [1 2 3]: each job once, by ID", ids(got))
	}
	if got := st.drainChanged(); got != nil {
		t.Fatalf("second drain = %v, want nil", ids(got))
	}
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
