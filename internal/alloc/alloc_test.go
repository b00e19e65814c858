package alloc

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lyra/internal/job"
	"lyra/internal/knapsack"
)

// tableJobs builds the elastic jobs of Table 2: A (w in [2,6], min running
// time 50) and B (w in [2,6], min running time 20), 1 GPU per worker.
func tableJobs2() (*job.Job, *job.Job) {
	a := job.New(1, 0, job.Generic, 1, 2, 6, 50)
	a.Elastic = true
	b := job.New(2, 0, job.Generic, 1, 2, 6, 20)
	b.Elastic = true
	return a, b
}

// table4Jobs builds Table 4: A gets max demand 3 and min running time 100.
func table4Jobs() (*job.Job, *job.Job) {
	a := job.New(1, 0, job.Generic, 1, 2, 3, 100)
	a.Elastic = true
	b := job.New(2, 0, job.Generic, 1, 2, 6, 20)
	b.Elastic = true
	return a, b
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestTable3RuntimesAtAllocations(t *testing.T) {
	a, b := tableJobs2()
	// Solution 1: A=6, B=2 -> A runs 50, B runs (partially at 2, then 6).
	// Initial running times at the shown allocations (Table 3 computes
	// the final JCTs with reallocation; here we verify the building
	// blocks: inverse proportionality).
	if !almostEqual(a.RuntimeAt(6, job.Linear), 50) || !almostEqual(a.RuntimeAt(2, job.Linear), 150) {
		t.Errorf("A runtimes: %v @6, %v @2", a.RuntimeAt(6, job.Linear), a.RuntimeAt(2, job.Linear))
	}
	if !almostEqual(b.RuntimeAt(6, job.Linear), 20) || !almostEqual(b.RuntimeAt(4, job.Linear), 30) {
		t.Errorf("B runtimes: %v @6, %v @4", b.RuntimeAt(6, job.Linear), b.RuntimeAt(4, job.Linear))
	}
}

func TestFigure6JCTReductionValues(t *testing.T) {
	// Figure 6 lists job B's JCT reduction values for 1..4 extra workers
	// as 20, 30, 36, 40 and job A's single extra worker as 50.
	a, b := table4Jobs()
	wantB := []float64{20, 30, 36, 40}
	for k := 1; k <= 4; k++ {
		if got := JCTReduction(b, k, job.Linear); !almostEqual(got, wantB[k-1]) {
			t.Errorf("B reduction(+%d) = %v, want %v", k, got, wantB[k-1])
		}
	}
	if got := JCTReduction(a, 1, job.Linear); !almostEqual(got, 50) {
		t.Errorf("A reduction(+1) = %v, want 50", got)
	}
}

func TestJCTReductionUsesRemainingWork(t *testing.T) {
	_, b := table4Jobs()
	full := JCTReduction(b, 2, job.Linear)
	b.Remaining = b.Work / 2
	if got := JCTReduction(b, 2, job.Linear); !almostEqual(got, full/2) {
		t.Errorf("half-done job reduction = %v, want %v", got, full/2)
	}
}

func TestPhase2PicksMaxTotalReduction(t *testing.T) {
	// Table 4 jobs with 4 spare GPUs; A on 2-GPU workers as in Figure 6.
	a := job.New(1, 0, job.Generic, 2, 2, 3, 100)
	a.Elastic = true
	_, b := table4Jobs()
	got := Phase2([]*job.Job{a, b}, 4, job.Linear, Tuning{}, nil)
	// Options: A+1 (2 GPUs, 50) + B+2 (2 GPUs, 30) = 80 beats B+4 (40)
	// and A+1 + B+1 (70).
	want := map[int]int{1: 1, 2: 2}
	if len(got) != len(want) {
		t.Fatalf("Phase2 = %v, want %v", got, want)
	}
	for _, e := range got {
		if want[e.ID] != e.Extra {
			t.Errorf("job %d extra = %d, want %d", e.ID, e.Extra, want[e.ID])
		}
	}
}

func TestPhase2EverythingFitsShortcut(t *testing.T) {
	a, b := tableJobs2()
	got := Phase2([]*job.Job{a, b}, 100, job.Linear, Tuning{}, nil)
	if len(got) != 2 || got[0].Extra != a.FlexRange() || got[1].Extra != b.FlexRange() {
		t.Errorf("abundant capacity should max everyone: %v", got)
	}
}

func TestPhase2ZeroCapacity(t *testing.T) {
	a, b := tableJobs2()
	if got := Phase2([]*job.Job{a, b}, 0, job.Linear, Tuning{}, nil); got != nil {
		t.Errorf("zero capacity: %v", got)
	}
}

func TestPhase2RespectsCapacity(t *testing.T) {
	a, b := tableJobs2()
	a.GPUsPerWorker, b.GPUsPerWorker = 2, 2
	for _, capGPUs := range []int{1, 2, 3, 5, 7, 9} {
		got := Phase2([]*job.Job{a, b}, capGPUs, job.Linear, Tuning{}, nil)
		total := 0
		for _, e := range got {
			total += e.Extra * 2
		}
		if total > capGPUs {
			t.Errorf("cap %d: allocated %d GPUs", capGPUs, total)
		}
	}
}

func TestPhase2StabilityBonusPreventsChurn(t *testing.T) {
	// Two identical elastic jobs, capacity for one extra worker. The job
	// currently holding a flexible worker must keep it even though the
	// other job's value is (fractionally) identical.
	a, b := tableJobs2()
	b.Work = a.Work // identical
	b.Remaining = b.Work
	b.Workers = []job.Worker{
		{Server: 0, GPUs: 1}, {Server: 0, GPUs: 1},
		{Server: 1, GPUs: 1, Flexible: true},
	}
	got := Phase2([]*job.Job{a, b}, 1, job.Linear, Tuning{}, nil)
	if len(got) != 1 || got[0].ID != b.ID || got[0].Extra != 1 {
		t.Errorf("churn: %v, want job %d to keep its flexible worker", got, b.ID)
	}
}

func TestItemExtrasSmallRange(t *testing.T) {
	got := itemExtras(nil, 3, 0, Phase2MaxItems)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("itemExtras(3) = %v", got)
	}
}

func TestItemExtrasLargeRangeIncludesCurrentAndMax(t *testing.T) {
	got := itemExtras(nil, 40, 7, Phase2MaxItems)
	if got[len(got)-1] != 40 {
		t.Errorf("max extra missing: %v", got)
	}
	found := false
	for i, k := range got {
		if k == 7 {
			found = true
		}
		if i > 0 && got[i-1] >= k {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	if !found {
		t.Errorf("current extra 7 missing: %v", got)
	}
	if len(got) > Phase2MaxItems+1 {
		t.Errorf("too many items: %v", got)
	}
}

func TestAFSGreedyMarginalGain(t *testing.T) {
	// Under imperfect scaling, every extra worker contributes the same
	// 0.8 gain per GPU for 1-GPU-per-worker jobs; ties go to the job with
	// more remaining work.
	a, b := tableJobs2() // A has work 300, B has work 120
	got := AFS([]*job.Job{a, b}, 2, job.Imperfect, nil)
	if len(got) != 1 || got[0].ID != a.ID || got[0].Extra != 2 {
		t.Errorf("AFS = %v, want A getting both workers (larger remaining)", got)
	}
}

func TestAFSPerGPUNormalization(t *testing.T) {
	// A 4-GPU-per-worker job and a 1-GPU-per-worker job with the same
	// per-GPU gain under linear scaling: the bigger job's workers cost
	// more but gain proportionally more; per-GPU gain ties, and remaining
	// work decides.
	big := job.New(1, 0, job.Generic, 4, 1, 3, 1000)
	big.Elastic = true
	small := job.New(2, 0, job.Generic, 1, 1, 3, 10)
	small.Elastic = true
	got := AFS([]*job.Job{big, small}, 4, job.Linear, nil)
	if len(got) == 0 || got[0].ID != big.ID {
		t.Errorf("AFS = %v, want the big job favored on ties", got)
	}
}

func TestAFSRespectsCapacityAndRange(t *testing.T) {
	a, b := tableJobs2()
	got := AFS([]*job.Job{a, b}, 100, job.Linear, nil)
	for _, e := range got {
		if e.Extra > 4 {
			t.Errorf("job %d got %d extras beyond range", e.ID, e.Extra)
		}
	}
	total := 0
	for _, e := range got {
		total += e.Extra
	}
	if total != 8 {
		t.Errorf("abundant capacity should fill both ranges: %v", got)
	}
}

// refItemExtras is itemExtras as it was before it appended into caller
// scratch, kept verbatim as the oracle: a fresh slice per call, the current
// count prepended by copy when it precedes every spaced value.
func refItemExtras(flexRange, current, maxItems int) []int {
	if flexRange <= maxItems {
		out := make([]int, flexRange)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := make([]int, 0, maxItems+1)
	for i := 1; i <= maxItems; i++ {
		k := i * flexRange / maxItems
		if k == 0 {
			k = 1
		}
		if len(out) > 0 && out[len(out)-1] == k {
			continue
		}
		if current > 0 && current <= flexRange && len(out) > 0 && out[len(out)-1] < current && current < k {
			out = append(out, current)
		}
		out = append(out, k)
	}
	if current > 0 && current <= flexRange && (len(out) == 0 || out[0] > current) {
		out = append([]int{current}, out...)
	}
	return out
}

func TestItemExtrasMatchesReference(t *testing.T) {
	// Appending after stale scratch must leave the prefix alone and add
	// exactly the reference's values, for every range, current count
	// (including out-of-range ones) and item cap.
	for flexRange := 0; flexRange <= 70; flexRange++ {
		for current := -1; current <= flexRange+2; current++ {
			for maxItems := 1; maxItems <= 12; maxItems++ {
				got := itemExtras([]int{-7, -8}, flexRange, current, maxItems)
				want := append([]int{-7, -8}, refItemExtras(flexRange, current, maxItems)...)
				if !slices.Equal(got, want) {
					t.Fatalf("itemExtras(%d, %d, %d) = %v, want %v", flexRange, current, maxItems, got, want)
				}
			}
		}
	}
}

// refPhase2 is Phase2 as it was before the Workspace, kept verbatim as the
// oracle: fresh slices per call, the model evaluated per item through
// JCTReduction, a zero-workspace solve.
func refPhase2(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, tune Tuning) []Extra {
	if capacityGPUs <= 0 || len(jobs) == 0 {
		return nil
	}
	bonus, maxItems := tune.stabilityBonus(), tune.maxItems()
	ordered := make([]*job.Job, len(jobs))
	copy(ordered, jobs)
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].ID < ordered[k].ID })
	total := 0
	for _, j := range ordered {
		total += j.FlexRange() * j.GPUsPerWorker
	}
	if total <= capacityGPUs {
		out := make([]Extra, 0, len(ordered))
		for _, j := range ordered {
			if j.FlexRange() > 0 {
				out = append(out, Extra{ID: j.ID, Extra: j.FlexRange()})
			}
		}
		return out
	}
	g := 0
	for _, j := range ordered {
		g = gcd(g, j.GPUsPerWorker)
	}
	if g == 0 {
		g = 1
	}
	groups := make([][]knapsack.Item, 0, len(ordered))
	extras := make([][]int, 0, len(ordered))
	groupJobs := make([]*job.Job, 0, len(ordered))
	for _, j := range ordered {
		fr := j.FlexRange()
		if fr == 0 {
			continue
		}
		cur := j.FlexibleWorkers()
		ks := refItemExtras(fr, cur, maxItems)
		items := make([]knapsack.Item, len(ks))
		for i, k := range ks {
			v := JCTReduction(j, k, sm)
			if k == cur {
				v *= bonus
			}
			items[i] = knapsack.Item{Weight: k * j.GPUsPerWorker / g, Value: v}
		}
		groups = append(groups, items)
		extras = append(extras, ks)
		groupJobs = append(groupJobs, j)
	}
	_, choice := knapsack.MultiChoice(groups, capacityGPUs/g)
	var out []Extra
	for gi, ci := range choice {
		if ci >= 0 {
			out = append(out, Extra{ID: groupJobs[gi].ID, Extra: extras[gi][ci]})
		}
	}
	return out
}

// contendedJobs draws n elastic jobs with mixed worker shapes, flexible
// ranges from 0 (no group) to well past the default item cap, partial
// progress and some flexible workers already held, in shuffled ID order.
func contendedJobs(rng *rand.Rand, n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		minW := rng.Intn(4) + 1
		j := job.New(i+1, 0, job.Generic, 1<<rng.Intn(3), minW, minW+[]int{0, 1, 3, 8, 9, 30}[rng.Intn(6)], float64(rng.Intn(5000)+60))
		j.Elastic = true
		j.Remaining = j.Work * (0.1 + 0.9*rng.Float64())
		for w := 0; w < minW; w++ {
			j.Workers = append(j.Workers, job.Worker{Server: w, GPUs: j.GPUsPerWorker})
		}
		for w := rng.Intn(j.FlexRange() + 1); w > 0 && rng.Intn(2) == 0; w-- {
			j.Workers = append(j.Workers, job.Worker{Server: 100 + w, GPUs: j.GPUsPerWorker, Flexible: true})
		}
		jobs[i] = j
	}
	rng.Shuffle(n, func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

func TestPhase2ReusedWorkspaceMatchesFresh(t *testing.T) {
	// One Workspace through a call sequence whose candidate set grows and
	// shrinks (stale scratch behind every buffer), with unsorted and
	// sorted input, FlexRange == 0 jobs, item caps below and above the
	// jobs' flexible ranges, capacities from one GPU to everything-fits
	// and progress advancing between calls: every call must return what a
	// nil workspace returns, and what Phase2 returned before it had one.
	// Solves wide enough for the kernel's Lagrangian bound (48 cells per
	// group is above knapsack's pruneWidth) carry the reused Solver's
	// multiplier from one call into the next, where the fresh one starts cold.
	rng := rand.New(rand.NewSource(5))
	jobs := contendedJobs(rng, 60)
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, byID)
	var ws Workspace
	solves, bounded := 0, 0
	for call := 0; call < 300; call++ {
		in := jobs
		if call%2 == 1 {
			in = sorted
		}
		in = in[:[]int{60, 7, 33, 1, 60, 2}[call%6]]
		tune := Tuning{MaxItems: []int{0, 2, 40, 1}[call%4], StabilityBonus: []float64{0, 1, 1.5}[call%3]}
		capacity := rng.Intn(400) + 1
		got := Phase2(in, capacity, job.Imperfect, tune, &ws)
		want := Phase2(in, capacity, job.Imperfect, tune, nil)
		ref := refPhase2(in, capacity, job.Imperfect, tune)
		if !slices.Equal(got, want) || !slices.Equal(got, ref) {
			t.Fatalf("call %d (%d jobs, capacity %d, %+v):\nreused workspace %v\nfresh %v\nreference %v",
				call, len(in), capacity, tune, got, want, ref)
		}
		used, demand := 0, 0
		for _, e := range got {
			used += e.Extra * sorted[e.ID-1].GPUsPerWorker
		}
		if used > capacity {
			t.Fatalf("call %d: targets use %d GPUs of %d", call, used, capacity)
		}
		for _, j := range in {
			demand += j.FlexRange() * j.GPUsPerWorker
			j.Remaining *= 0.97
		}
		if demand > capacity {
			solves++
			g := 0
			for _, j := range in {
				g = gcd(g, j.GPUsPerWorker)
			}
			if meanBandWidth(ws.groups, capacity/g) >= 48 {
				bounded++
			}
		}
	}
	if solves < 100 || bounded < 50 {
		t.Fatalf("%d of 300 calls reached the MCKP, %d of them wide enough for its bound: the sequence tests too little", solves, bounded)
	}
}

// meanBandWidth is what the MCKP kernel's bound cutoff reads: the budgets
// of every group's exact band [lo, hi] per group (knapsack.Solver).
func meanBandWidth(groups [][]knapsack.Item, capacity int) int {
	top, hi := make([]int, len(groups)), make([]int, len(groups))
	reach := 0
	for g, items := range groups {
		for _, it := range items {
			if it.Weight <= capacity {
				top[g] = max(top[g], it.Weight)
			}
		}
		reach = min(capacity, reach+top[g])
		hi[g] = reach
	}
	cells, need := 0, capacity
	for g := len(groups) - 1; g >= 0; g-- {
		cells += hi[g] - min(need, hi[g]) + 1
		need = max(0, need-top[g])
	}
	return cells / len(groups)
}

func TestWarmResultsAreOwnedByTheWorkspace(t *testing.T) {
	// A reused Workspace, and the Solver inside it, returns its own buffer:
	// the next call on it overwrites the previous result, on the solve path
	// and on the everything-fits path alike, which is why the scheduler
	// applies phase 2's targets before it schedules again. A nil workspace
	// and the package MultiChoice return slices no later call touches.
	jobs := contendedJobs(rand.New(rand.NewSource(9)), 60)
	slices.SortFunc(jobs, byID)
	calls := []struct{ n, capacity int }{{60, 120}, {30, 40}, {20, 1 << 20}}
	var ws Workspace
	var fresh, warm [][]Extra
	for _, c := range calls {
		want := Phase2(jobs[:c.n], c.capacity, job.Imperfect, Tuning{}, nil)
		got := Phase2(jobs[:c.n], c.capacity, job.Imperfect, Tuning{}, &ws)
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%+v: reused workspace %v, fresh %v", c, got, want)
		}
		fresh, warm = append(fresh, want), append(warm, got)
	}
	for i, c := range calls {
		if got := Phase2(jobs[:c.n], c.capacity, job.Imperfect, Tuning{}, nil); !slices.Equal(fresh[i], got) {
			t.Errorf("call %d: a fresh result changed after later calls: %v, want %v", i, fresh[i], got)
		}
		if last := warm[len(warm)-1]; i < len(warm)-1 && !slices.Equal(warm[i][:len(last)], last) {
			t.Errorf("call %d: a reused workspace's result %v is not overwritten by the last call's %v", i, warm[i], last)
		}
	}

	groups := [][]knapsack.Item{{{Weight: 1, Value: 3}, {Weight: 2, Value: 5}}, {{Weight: 2, Value: 4}}, {{Weight: 1, Value: 1}}}
	var s knapsack.Solver
	_, first := s.MultiChoice(groups, 3)
	_, freshFirst := knapsack.MultiChoice(groups, 3)
	want := slices.Clone(first)
	_, second := s.MultiChoice(groups[1:], 1)
	knapsack.MultiChoice(groups[1:], 1)
	if !slices.Equal(freshFirst, want) {
		t.Errorf("package MultiChoice result changed to %v after a later solve, want %v", freshFirst, want)
	}
	if !slices.Equal(first[:len(second)], second) || slices.Equal(first, want) {
		t.Errorf("a warm Solver's choice %v (was %v) is not overwritten by the next solve's %v", first, want, second)
	}
}

func TestWarmPhase2AllocatesNothing(t *testing.T) {
	// The scheduler's steady state: shuffled candidates (sorted into the
	// workspace), a contended solve wide enough for the kernel's bound, a
	// narrow one below it, and one where everything fits.
	jobs := contendedJobs(rand.New(rand.NewSource(1)), 354)
	var ws Workspace
	for _, capacity := range []int{245, 8, 1 << 20} {
		Phase2(jobs, capacity, job.Imperfect, Tuning{}, &ws)
		if allocs := testing.AllocsPerRun(10, func() { Phase2(jobs, capacity, job.Imperfect, Tuning{}, &ws) }); allocs != 0 {
			t.Errorf("capacity %d: a warm Phase2 allocates %v times per call, want 0", capacity, allocs)
		}
	}
}

// BenchmarkPhase2 is phase 2's one-second loop (make bench): 354 contended
// elastic jobs for the paper's 245 GPUs, through a reused Workspace as the
// scheduler holds one and through nil as the reference path does.
func BenchmarkPhase2(b *testing.B) {
	jobs := contendedJobs(rand.New(rand.NewSource(1)), 354)
	slices.SortFunc(jobs, byID)
	for _, ws := range []*Workspace{new(Workspace), nil} {
		name := "reused"
		if ws == nil {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			Phase2(jobs, 245, job.Imperfect, Tuning{}, ws) // warm even at -benchtime 1x
			b.ReportAllocs()
			var cells, search int // the reused kernel's work (knapsack.Solver.Work)
			if ws != nil {
				cells, search = ws.solver.Work()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Phase2(jobs, 245, job.Imperfect, Tuning{}, ws)
			}
			if ws != nil {
				c, e := ws.solver.Work()
				b.ReportMetric(float64(c-cells)/float64(b.N), "cells/op")
				b.ReportMetric(float64(e-search)/float64(b.N), "bound-steps/op")
			}
		})
	}
}

func TestAFSReusedCacheMatchesFresh(t *testing.T) {
	// One ThroughputCache through a call sequence whose candidate set grows
	// and shrinks (stale candidates and targets behind both buffers), with
	// shuffled and ID-sorted input, FlexRange == 0 jobs, capacities from
	// one GPU to everything-fits and progress advancing between calls:
	// every call must return what a nil cache returns.
	rng := rand.New(rand.NewSource(6))
	jobs := contendedJobs(rng, 60)
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, byID)
	cache := NewThroughputCache(job.Imperfect)
	for call := 0; call < 300; call++ {
		in := jobs
		if call%2 == 1 {
			in = sorted
		}
		in = in[:[]int{60, 7, 33, 1, 60, 2}[call%6]]
		capacity := rng.Intn(400) + 1
		got := AFS(in, capacity, job.Imperfect, cache)
		if want := AFS(in, capacity, job.Imperfect, nil); !slices.Equal(got, want) {
			t.Fatalf("call %d (%d jobs, capacity %d): reused cache %v, fresh %v", call, len(in), capacity, got, want)
		}
		for _, j := range in {
			j.Remaining *= 0.97
		}
	}
}

func TestWarmAFSAllocatesNothing(t *testing.T) {
	// The scheduler's steady state, ID-sorted candidates, and shuffled ones
	// sorted in the cache's buffer: contended, narrow and everything-fits.
	jobs := contendedJobs(rand.New(rand.NewSource(1)), 354)
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, byID)
	cache := NewThroughputCache(job.Imperfect)
	for _, in := range [][]*job.Job{sorted, jobs} {
		for _, capacity := range []int{245, 8, 1 << 20} {
			AFS(in, capacity, job.Imperfect, cache)
			if allocs := testing.AllocsPerRun(10, func() { AFS(in, capacity, job.Imperfect, cache) }); allocs != 0 {
				t.Errorf("capacity %d: a warm AFS allocates %v times per call, want 0", capacity, allocs)
			}
		}
	}
}

var benchTargets []Extra

// BenchmarkAFS is AFS's one-second loop (make bench): 354 contended elastic
// jobs, ID-sorted as State.ElasticOrdered hands them over, for the paper's
// 245 GPUs, through one warm ThroughputCache as the scheduler holds one.
func BenchmarkAFS(b *testing.B) {
	jobs := contendedJobs(rand.New(rand.NewSource(1)), 354)
	slices.SortFunc(jobs, byID)
	cache := NewThroughputCache(job.Imperfect)
	AFS(jobs, 245, job.Imperfect, cache) // warm even at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTargets = AFS(jobs, 245, job.Imperfect, cache)
	}
}

// TestTargetsAscendByCandidateID pins the input contract of the scheduler's
// phase-2 apply, which merge-walks the ID-ordered candidates against the
// targets: over random candidate sets — shuffled and sorted, contended and
// everything-fits — Phase2 and AFS return targets strictly ascending by job
// ID, naming only candidates.
func TestTargetsAscendByCandidateID(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	check := func(name string, cands []*job.Job, targets []Extra) {
		t.Helper()
		isCand := make(map[int]bool, len(cands))
		for _, j := range cands {
			isCand[j.ID] = true
		}
		for i, e := range targets {
			if !isCand[e.ID] {
				t.Fatalf("%s: target %+v names no candidate", name, e)
			}
			if i > 0 && e.ID <= targets[i-1].ID {
				t.Fatalf("%s: target %d (job %d) follows job %d; want strictly ascending IDs",
					name, i, e.ID, targets[i-1].ID)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		// A random subset of the drawn jobs, so IDs have gaps.
		var cands []*job.Job
		for _, j := range contendedJobs(rng, 1+rng.Intn(120)) {
			if rng.Intn(4) > 0 {
				cands = append(cands, j)
			}
		}
		capacity := rng.Intn(40 * (len(cands) + 1))
		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, byID)
		// A Workspace memoizes by job ID, and every trial redraws IDs from
		// 1, so each trial gets a fresh one.
		check("Phase2 shuffled", cands, Phase2(cands, capacity, job.Linear, Tuning{}, new(Workspace)))
		check("Phase2 sorted", cands, Phase2(sorted, capacity, job.Linear, Tuning{}, nil))
		check("AFS", cands, AFS(cands, capacity, job.Linear, NewThroughputCache(job.Linear)))
	}
}
