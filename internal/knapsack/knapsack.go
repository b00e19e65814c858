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

// pruneWidth is the mean band width per group (banded cells / groups) from
// which MultiChoice bounds its rows (DESIGN.md §10, "MCKP kernel"): below
// it the multiplier search costs more than the cells the bound skips.
const pruneWidth = 48

// Solver is the reusable workspace of MultiChoice: two value rows, one flat
// pick arena holding each group's band of budgets, the bands, the Lagrangian
// bound's buffers and last multiplier, and the returned choice, valid until
// the next call. Buffers grow on demand and are never shrunk, so a warm
// Solver allocates nothing. The zero value is ready; a Solver is not safe
// for concurrent use. A group of more than MaxGroupItems items panics.
type Solver struct {
	dp, next         []float64
	pick             []int16   // group g's row is pick[off[g]:][:hi[g]-lo[g]+1], budget lo[g] first; 0 = no item
	ints             []int     // the choice, lo, hi, off, top and bound's open groups, n each
	lo, hi, off, top []int     // top[g] is group g's heaviest usable item
	slack            []float64 // slack[g] = Σ_{h≥g} max(0, max_i v_i − λ·w_i) of group h; slack[n] = 0
	probes           []probe   // bound's groups at the probe and at the bracket's bottom and top, n each
	lambda           float64   // the last bounded solve's λ, where the next one starts its search
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
// so ties break as in the one-cell-at-a-time textbook DP. When the bands
// average pruneWidth budgets or more, a Lagrangian upper bound against a
// feasible lower bound also skips every budget no optimal selection passes
// through, leaving value and choice bit for bit the same.
func (s *Solver) MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	n := len(groups)
	s.ints = grow(s.ints, 6*n)
	choice := s.ints[:n]
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 || n == 0 {
		return 0, choice
	}
	s.lo, s.hi, s.off, s.top = s.ints[n:2*n], s.ints[2*n:3*n], s.ints[3*n:4*n], s.ints[4*n:5*n]
	reach, big := 0, 0 // forward: hi[g]
	for g, items := range groups {
		if len(items) > MaxGroupItems {
			panic("knapsack: group exceeds MaxGroupItems")
		}
		big = max(big, len(items))
		maxw := 0
		for _, it := range items {
			if it.Weight <= capacity {
				maxw = max(maxw, it.Weight)
			}
		}
		reach = min(capacity, reach+maxw)
		s.top[g], s.hi[g] = maxw, reach
	}
	cells, need := 0, capacity // backward: lo[g] (no higher than hi[g]) and the row offsets
	for g := n - 1; g >= 0; g-- {
		s.lo[g], s.off[g] = min(need, s.hi[g]), cells
		cells += s.hi[g] - s.lo[g] + 1
		need = max(0, need-s.top[g])
	}
	s.dp, s.next, s.pick = grow(s.dp, reach+1), grow(s.next, reach+1), grow(s.pick, cells)
	// Row g keeps budget w only while dp[w] − lam·w ≥ floor − slack[g+1].
	lam, floor, bounded := 0.0, 0.0, false
	if cells >= pruneWidth*n {
		lam, floor, bounded = s.bound(groups, capacity, big)
	}

	dp, next := s.dp, s.next
	clear(dp[:s.hi[0]+1])
	a, b := 0, s.hi[0] // the previous row's kept budgets; all others read as -Inf
	for g, items := range groups {
		lo, hi := max(s.lo[g], a), min(s.hi[g], b+s.top[g])
		row := s.pick[s.off[g]+lo-s.lo[g]:][:hi-lo+1] // row[i] is budget lo+i
		clear(row)
		keep := max(lo-1, min(hi, b))
		copy(next[lo:keep+1], dp[lo:keep+1])
		for w := keep + 1; w <= hi; w++ {
			next[w] = math.Inf(-1)
		}
		for idx, it := range items {
			if it.Weight < 0 || it.Weight > hi {
				continue
			}
			from, to := max(lo, a+it.Weight), min(hi, b+it.Weight)
			if from > to {
				continue
			}
			dst := next[from : to+1]
			src, pk := dp[from-it.Weight:][:len(dst)], row[from-lo:][:len(dst)]
			for i, best := range dst {
				if v := src[i] + it.Value; v > best+eps {
					dst[i], pk[i] = v, int16(idx+1)
				}
			}
		}
		a, b = lo, hi
		if bounded {
			thr := floor - s.slack[g+1]
			for a < b && next[a]-lam*float64(a) < thr {
				a++
			}
			for b > a && next[b]-lam*float64(b) < thr {
				b--
			}
		}
		if g+1 < n && b == s.hi[g] { // the next row reads this one's flat tail up to its own hi
			for w := b + 1; w <= s.hi[g+1]; w++ {
				next[w] = next[b]
			}
			b = s.hi[g+1]
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

// bound picks the Lagrange multiplier λ ≥ 0 of the row pruning (DESIGN.md
// §10): the smallest λ, to within 1/256, at which every group's argmax of
// v − λ·w fits the capacity, searched from the previous bounded solve's λ.
// A probe evaluates the open groups only: as each item's rounded v − λ·w
// falls with λ, a group closes, its argmax weight fixed, once its argmax at
// the bracket's top beats there every other weight's items at the bottom.
// It leaves in s.slack the suffix sums of P_g = max(0, max_i v_i − λ·w_i)
// and returns λ and floor = LB − margin − λ·capacity, LB the value of that
// argmax selection traded up into the capacity it leaves; false if 64
// doublings find no λ that fits or the traded-up selection does not fit.
func (s *Solver) bound(groups [][]Item, capacity, big int) (float64, float64, bool) {
	n := len(groups)
	s.slack, s.ints, s.probes = grow(s.slack, n+1), grow(s.ints, 6*n), grow(s.probes, 3*n)
	open, at, atLo, atHi := s.ints[5*n:], s.probes[:n], s.probes[n:2*n], s.probes[2*n:]
	for g := range open { // no group closes before both ends are probed
		open[g], atLo[g].rest, atHi[g].r = g, math.Inf(1), math.Inf(-1)
	}
	fixed, whi := 0, 0 // the closed groups' weight; the total at the top
	fits := func(lam float64) bool {
		k, w := 0, 0
		for _, g := range open {
			if bot, top := atLo[g], atHi[g]; bot.w == top.w && top.r > bot.rest { // closed
				fixed += top.w
				continue
			}
			at[g].w, _, at[g].r, at[g].rest = argmax(groups[g], capacity, lam)
			open[k], k, w = g, k+1, w+at[g].w
		}
		open, w = open[:k], w+fixed
		if w <= capacity {
			atHi, at, whi = at, atHi, w
		} else {
			atLo, at = at, atLo
		}
		return w <= capacity
	}
	lam := 0.0
	if !fits(0) {
		lo, hi := 0.0, s.lambda
		if hi <= 0 {
			hi = 1
		}
		// Bracket [lo, hi] with hi fitting: double an unfitting start, or
		// halve a fitting one while its half still fits.
		for i := 0; !fits(hi); i++ {
			if i == 64 {
				return 0, 0, false
			}
			lo, hi = hi, 2*hi
		}
		for i := 0; lo == 0 && i < 64 && fits(hi/2); i++ {
			hi /= 2
		}
		lo = max(lo, hi/2)
		for hi-lo > hi/256 {
			if mid := (lo + hi) / 2; fits(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		lam, s.lambda = hi, hi
	}
	// One full pass: the slack, and LB traded up into the room at the top.
	room, weight, lb := capacity-whi, 0, 0.0
	for g, items := range groups {
		w, v, best, _ := argmax(items, capacity, lam)
		s.slack[g] = best
		for _, it := range items {
			if room > 0 && it.Weight >= 0 && it.Weight-w <= room && it.Value > v {
				room, w, v = room-(it.Weight-w), it.Weight, it.Value
			}
		}
		weight, lb = weight+w, lb+v
	}
	if weight > capacity {
		return 0, 0, false
	}
	s.slack[n] = 0
	for g := n - 1; g >= 0; g-- {
		s.slack[g] += s.slack[g+1]
	}
	c := lam * float64(capacity)
	margin := 1e-9*(s.slack[0]+c) + float64((n+1)*(n+big+3))*eps
	return lam, lb - margin - c, true
}

// probe is one group at one λ: argmax's weight, excess and rest.
type probe struct {
	w       int
	r, rest float64
}

// argmax returns the weight, value and excess v − lam·w of the first usable
// item with the largest excess above "none" (weight 0, excess 0), and rest,
// at least the excess of every item, "none" included, of another weight.
func argmax(items []Item, capacity int, lam float64) (w int, v, best, rest float64) {
	rest = math.Inf(-1)
	for _, it := range items {
		switch r := it.Value - lam*float64(it.Weight); {
		case it.Weight < 0 || it.Weight > capacity:
		case r > best:
			if it.Weight != w {
				rest = max(rest, best)
			}
			best, w, v = r, it.Weight, it.Value
		case it.Weight != w:
			rest = max(rest, r)
		}
	}
	return w, v, best, rest
}

// grow returns s with length n, reallocating, to max(n, 2·cap(s)), only
// when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
