// Package knapsack implements the combinatorial kernel Lyra's phase-2
// elastic allocation reduces to, the multiple-choice knapsack (§5.2), and
// the brute-force reference solver the tests verify it against.
package knapsack

import "math"

// Item is one knapsack item. Weight must be non-negative; Value may be any
// finite float.
type Item struct {
	Weight int
	Value  float64
}

// eps absorbs float rounding when comparing candidate values.
const eps = 1e-9

// MaxGroupItems is the most items one group may hold: the pick table
// stores the chosen item's index plus one (0 = none) as an int16.
const MaxGroupItems = math.MaxInt16

// Solver is the reusable workspace of MultiChoice: two value rows, one flat
// pick arena holding each group's band of budgets, and the bands. Buffers
// grow on demand and are never shrunk, so a warm Solver allocates only the
// returned choice slice. The zero value is ready; a Solver is not safe for
// concurrent use. A group of more than MaxGroupItems items panics.
type Solver struct {
	dp, next    []float64
	pick        []int16 // group g's row is pick[off[g]:][:hi[g]-lo[g]+1], budget lo[g] first; 0 = no item
	lo, hi, off []int
}

// MultiChoice solves one instance in a fresh Solver.
func MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	return new(Solver).MultiChoice(groups, capacity)
}

// MultiChoice solves the multiple-choice knapsack problem (§5.2): from each
// group take at most one item, total weight <= capacity, maximize total
// value. It returns the best value and, per group, the index of the chosen
// item within the group or -1 if the group contributes nothing.
//
// This is exactly the formulation Lyra uses for phase-2 allocation: each
// elastic job is a group; the item for "+k workers" has weight k*GPUs and
// value equal to the job's JCT reduction (the paper reports at most 0.02 s
// for 354 items and 245 GPUs). The DP visits every item once per budget of
// its group's band [lo, hi], at most totalItems*(capacity+1) cells. The
// bands are exact (DESIGN.md §10): with maxw the heaviest usable item of a
// group, every budget above hi = min(capacity, Σ maxw of groups 0..g)
// repeats the row's cell at hi, and the recovery walk down from capacity
// never reads group g below lo = capacity - Σ maxw of groups g+1.. . Per
// budget the items are tried in index order against the same running best,
// so ties break as in the one-cell-at-a-time textbook DP.
func (s *Solver) MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	n := len(groups)
	choice := make([]int, n)
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 || n == 0 {
		return 0, choice
	}
	s.lo, s.hi, s.off = grow(s.lo, n), grow(s.hi, n), grow(s.off, n)
	reach := 0 // forward: hi[g]; lo[g] holds maxw until the backward pass
	for g, items := range groups {
		if len(items) > MaxGroupItems {
			panic("knapsack: group exceeds MaxGroupItems")
		}
		maxw := 0
		for _, it := range items {
			if it.Weight <= capacity {
				maxw = max(maxw, it.Weight)
			}
		}
		reach = min(capacity, reach+maxw)
		s.lo[g], s.hi[g] = maxw, reach
	}
	cells, need := 0, capacity // backward: lo[g] (no higher than hi[g]) and the row offsets
	for g := n - 1; g >= 0; g-- {
		maxw := s.lo[g]
		s.lo[g], s.off[g] = min(need, s.hi[g]), cells
		cells += s.hi[g] - s.lo[g] + 1
		need = max(0, need-maxw)
	}
	s.dp, s.next, s.pick = grow(s.dp, reach+1), grow(s.next, reach+1), grow(s.pick, cells)

	dp, next := s.dp, s.next
	clear(dp[:s.hi[0]+1])
	for g, items := range groups {
		lo, hi := s.lo[g], s.hi[g]
		row := s.pick[s.off[g]:][:hi-lo+1]
		clear(row)
		copy(next[lo:hi+1], dp[lo:hi+1])
		for idx, it := range items {
			if it.Weight < 0 || it.Weight > hi {
				continue
			}
			from := max(lo, it.Weight)
			dst := next[from : hi+1]
			src, pk := dp[from-it.Weight:][:len(dst)], row[from-lo:][:len(dst)]
			for i, best := range dst {
				if v := src[i] + it.Value; v > best+eps {
					dst[i], pk[i] = v, int16(idx+1)
				}
			}
		}
		if g+1 < n { // the next row reads this one's flat tail up to its own hi
			for w := hi + 1; w <= s.hi[g+1]; w++ {
				next[w] = next[hi]
			}
		}
		dp, next = next, dp
	}
	w := capacity
	for g := n - 1; g >= 0; g-- {
		if p := s.pick[s.off[g]+min(w, s.hi[g])-s.lo[g]]; p > 0 {
			choice[g] = int(p) - 1
			w -= groups[g][p-1].Weight
		}
	}
	return dp[s.hi[n-1]], choice
}

// grow returns s with length n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
