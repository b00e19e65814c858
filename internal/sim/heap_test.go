package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapPopsInTimelineOrder: whatever mix of appended-then-heapified
// and pushed events the heap holds, with many sharing a time and a kind, it
// pops them in sort order of (t, kind, seq) — the order every digest and the
// golden stream depend on. Pops interleave with pushes as they do in Run.
func TestEventHeapPopsInTimelineOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var seq int64
		draw := func() event {
			seq++
			// Four distinct times and three kinds: ties are the common case.
			return event{t: float64(rng.Intn(4)), kind: eventKind(rng.Intn(3)), jobID: rng.Intn(100), seq: seq}
		}
		var h eventHeap
		var all []event
		for i := rng.Intn(300); i > 0; i-- {
			h = append(h, draw())
		}
		all = append(all, h...)
		h.init()

		var popped []event
		for len(h) > 0 {
			popped = append(popped, h.pop())
			for rng.Intn(3) == 0 && len(all) < 600 {
				// Later than the event just popped, so that the whole pop
				// sequence is sorted; still tied with others at its time.
				ev := draw()
				ev.t += popped[len(popped)-1].t + 1
				h.push(ev)
				all = append(all, ev)
			}
		}
		if len(popped) != len(all) {
			t.Fatalf("seed %d: popped %d of %d events", seed, len(popped), len(all))
		}
		if !sort.SliceIsSorted(popped, func(i, k int) bool { return popped[i].before(&popped[k]) }) {
			t.Fatalf("seed %d: pop order is not (t, kind, seq) order", seed)
		}
		sort.Slice(all, func(i, k int) bool { return all[i].before(&all[k]) })
		for i := range all {
			if popped[i] != all[i] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, i, popped[i], all[i])
			}
		}
	}
}
