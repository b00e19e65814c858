package sched

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/sim"
)

// epochFixture is one production-shaped scheduling epoch: the paper's 443
// training + 520 inference servers, all loaned, packed by 1,000 jobs of
// which half are elastic (~450 run), with 40 fresh arrivals waiting. The
// arrivals' gangs take GPUs back from flexible workers (make-room), and
// phase 2 then re-grows the elastic jobs (scale-outs). The same call builds
// the same state.
func epochFixture() *sim.State {
	st := packedState(1, 443, 520, 1000, 20, 0.5)
	rng := rand.New(rand.NewSource(2))
	for id := 2_000_000; id < 2_000_040; id++ {
		base := 1 + rng.Intn(4)
		j := job.New(id, 0, job.ResNet, 1<<rng.Intn(3), base, base+rng.Intn(7), 1000+rng.Float64()*1e5)
		j.Elastic = rng.Intn(2) == 0
		st.Enqueue(j, lessByEstimate)
	}
	return st
}

// epochAllocBudget is the heap allocations one warm epochFixture epoch may
// make: 254 when pinned, with a little headroom. What remains is mostly the
// jobs' own worker lists (Start and AddWorkers copy the placed workers) and
// the MCKP's target list; the placement buffers and the phase-2 target
// lookup are reused scratch. The per-epoch buffers they replaced made 556.
const epochAllocBudget = 280

// TestEpochAllocationBudget counts the heap allocations of one warm
// scheduling epoch, Lyra.Schedule alone: the scheduler instance has already
// run the same epoch once, and the fixture is rebuilt outside the counted
// window. A twin run with the event stream on checks that the epoch is the
// one the budget is for, with make-room and phase-2 scale-outs both firing.
func TestEpochAllocationBudget(t *testing.T) {
	st := epochFixture()
	var events bytes.Buffer
	st.Obs = obs.NewRecorder(obs.NewJSONLWriter(&events))
	NewLyra().Schedule(st)
	s := events.String()
	if n := strings.Count(s, `"cause":"make-room"`); n < 20 {
		t.Fatalf("%d make-room scale-ins, want at least 20", n)
	}
	if n := strings.Count(s, `"kind":"job.scale_up"`); n < 20 {
		t.Fatalf("%d scale-outs, want at least 20", n)
	}

	l := NewLyra()
	l.Schedule(epochFixture())
	st = epochFixture()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.Schedule(st)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > epochAllocBudget {
		t.Errorf("one warm epoch made %d heap allocations, budget %d", n, epochAllocBudget)
	} else {
		t.Logf("one warm epoch made %d heap allocations (budget %d)", n, epochAllocBudget)
	}
}

// BenchmarkEpoch measures the epoch TestEpochAllocationBudget counts: one
// warm Lyra.Schedule over a fresh epochFixture, which is built with the
// timer stopped. allocs/op is the number to watch.
func BenchmarkEpoch(b *testing.B) {
	l := NewLyra()
	l.Schedule(epochFixture())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := epochFixture()
		b.StartTimer()
		l.Schedule(st)
	}
}
