package cluster

import (
	"math/rand"
	"sort"
	"testing"
)

// TestIdsetMatchesSortedSliceModel drives an idset and a sorted []int with
// the same random add/del/next sequence. The slot range is drawn so members
// straddle the 64-slot word and 4,096-slot summary-word boundaries, the
// upper range is only reached late (growth past the first allocation), and
// the periodic purge empties words that are then used again — a summary bit
// left set by del, or left clear by a later add, shows as a wrong next.
func TestIdsetMatchesSortedSliceModel(t *testing.T) {
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 4094, 4095, 4096, 4097, 8191, 8192, 12287, 12288, 20000}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s idset
		var model []int // ascending, no duplicates
		pick := func(step int) int {
			limit := 300 + step*6 // the reachable range grows with the run
			if rng.Intn(3) == 0 {
				if e := edges[rng.Intn(len(edges))]; e < limit {
					return e
				}
			}
			return rng.Intn(limit)
		}
		for step := 0; step < 4000; step++ {
			i := pick(step)
			at := sort.SearchInts(model, i)
			present := at < len(model) && model[at] == i
			switch op := rng.Intn(10); {
			case op < 4: // add, duplicates included
				s.add(i)
				if !present {
					model = append(model, 0)
					copy(model[at+1:], model[at:])
					model[at] = i
				}
			case op < 8: // del, absent members included
				if got := s.del(i); got != present {
					t.Fatalf("seed %d step %d: del(%d) = %v, model says present=%v", seed, step, i, got, present)
				}
				if present {
					model = append(model[:at], model[at+1:]...)
				}
			}
			if step%500 == 499 { // purge: every word empties, then refills
				for _, m := range model {
					if !s.del(m) {
						t.Fatalf("seed %d step %d: purge del(%d) found nothing", seed, step, m)
					}
				}
				model = model[:0]
			}
			if s.n != len(model) {
				t.Fatalf("seed %d step %d: n = %d, model holds %d", seed, step, s.n, len(model))
			}
			for _, q := range []int{i, i + 1, pick(step), 0} {
				want := -1
				if k := sort.SearchInts(model, q); k < len(model) {
					want = model[k]
				}
				if got := s.next(q); got != want {
					t.Fatalf("seed %d step %d: next(%d) = %d, want %d", seed, step, q, got, want)
				}
			}
			if step%250 == 0 { // a full ascending walk equals the model
				k := 0
				for m := s.next(0); m >= 0; m = s.next(m + 1) {
					if k >= len(model) || model[k] != m {
						t.Fatalf("seed %d step %d: walk yields %d at position %d, model %v", seed, step, m, k, model)
					}
					k++
				}
				if k != len(model) {
					t.Fatalf("seed %d step %d: walk yields %d members, model holds %d", seed, step, k, len(model))
				}
			}
		}
	}
	if (&idset{}).del(5) {
		t.Fatal("del on the zero value reports a member")
	}
}
