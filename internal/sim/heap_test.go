package sim

import (
	"math/rand"
	"testing"
)

// TestEventHeapPopsInTimelineOrder: whatever mix of appended-then-heapified
// and pushed events the heap holds, with many sharing a time and a kind, and
// however often a job's finish event is rescheduled or removed in between,
// it pops the live events in (t, kind, seq) order — the order every digest
// and the golden stream depend on. The reference is the lazy-deletion
// timeline the heap replaced: every reschedule pushes a new versioned
// event, and a pop skips the finish events whose version is stale.
func TestEventHeapPopsInTimelineOrder(t *testing.T) {
	const jobs = 40
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var seq int64
		draw := func(kind eventKind, id int) event {
			seq++
			// Four distinct times: ties are the common case.
			return event{t: float64(rng.Intn(4)), kind: kind, jobID: id, seq: seq}
		}
		other := func() eventKind { return []eventKind{evArrival, evCrash, evSched}[rng.Intn(3)] }

		// ref holds every event pushed, with its job's version at the time.
		type versioned struct {
			ev      event
			version int
		}
		var ref []versioned
		version := make([]int, jobs)
		h := eventHeap{pos: make([]int32, jobs)}
		for i := range h.pos {
			h.pos[i] = -1
		}
		for i := rng.Intn(200); i > 0; i-- {
			ev := draw(other(), rng.Intn(jobs))
			h.ev = append(h.ev, ev)
			ref = append(ref, versioned{ev, 0})
		}
		h.init()

		// refPop removes the least live event from ref, discarding the
		// stale ones before it, as a lazy-deletion timeline pops them.
		refPop := func() (event, bool) {
			for len(ref) > 0 {
				m := 0
				for k := range ref {
					if ref[k].ev.before(&ref[m].ev) {
						m = k
					}
				}
				v := ref[m]
				ref = append(ref[:m], ref[m+1:]...)
				if v.ev.kind != evFinish || v.version == version[v.ev.jobID] {
					return v.ev, true
				}
			}
			return event{}, false
		}

		var last float64
		popped, moves := 0, 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(8); {
			case op < 3: // reschedule (or first schedule) a job's finish
				id := rng.Intn(jobs)
				ev := draw(evFinish, id)
				ev.t += last
				version[id]++
				ref = append(ref, versioned{ev, version[id]})
				h.finish(ev)
				moves++
			case op < 4: // the job stops running
				id := rng.Intn(jobs)
				version[id]++
				if p := h.pos[id]; p >= 0 {
					h.remove(int(p))
				}
			case op < 5:
				ev := draw(other(), rng.Intn(jobs))
				ev.t += last
				ref = append(ref, versioned{ev, 0})
				h.push(ev)
			default:
				want, ok := refPop()
				if !ok {
					if len(h.ev) != 0 {
						t.Fatalf("seed %d: reference is empty, heap holds %d events", seed, len(h.ev))
					}
					continue
				}
				if len(h.ev) == 0 {
					t.Fatalf("seed %d: heap is empty, reference pops %+v", seed, want)
				}
				got := h.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop %+v, want %+v", seed, step, got, want)
				}
				last, popped = got.t, popped+1
			}
			for p, ev := range h.ev {
				if ev.kind == evFinish && int(h.pos[ev.jobID]) != p {
					t.Fatalf("seed %d step %d: job %d's finish event at %d, indexed at %d", seed, step, ev.jobID, p, h.pos[ev.jobID])
				}
			}
		}
		if popped < 500 || moves < 500 {
			t.Fatalf("seed %d: %d pops and %d reschedules, want 500 of each", seed, popped, moves)
		}
	}
}
