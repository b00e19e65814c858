// Package knapsack implements the combinatorial kernel Lyra's phase-2
// elastic allocation reduces to, the multiple-choice knapsack (§5.2).
package knapsack

import "math"

// Item is one knapsack item. Within a group weights are non-negative and
// non-decreasing, as phase 2's "+k workers" items come (MultiChoice panics
// otherwise); Value may be any finite float.
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
// it the bound's pass over the items costs more than the cells it skips.
const pruneWidth = 12

// Solver is the reusable workspace of MultiChoice: each group's upper hull,
// two value rows, one flat pick arena holding each group's band of budgets,
// the bands, the Lagrangian bound's buffers and last multiplier, and the
// returned choice, valid until the next call. The items stay where they lie.
// Buffers grow on demand and are never shrunk, so a warm Solver allocates
// nothing. The zero value is ready; a Solver is not safe for concurrent use.
// A group of more than MaxGroupItems items, or out of Item's order, panics.
type Solver struct {
	hull                 []vertex // group g's upper hull is hull[hs[g]:hs[g+1]]
	dp, next             []float64
	pick                 []int16   // group g's row is pick[off[g]:][:hi[g]-lo[g]+1], budget lo[g] first; 0 = no item
	ints                 []int     // the choice, lo, hi, off, top, at, heap and use, n each, then hs, n+1
	lo, hi, off, top, at []int     // top[g] is the weight of group g's last usable item; at[g] its selected hull vertex
	heap, use, hs        []int     // walk's groups; group g's usable items are groups[g][:use[g]]
	slack                []float64 // slack[g] = Σ_{h≥g} max(0, max_i v_i − λ·w_i) of group h; slack[n] = 0
	lambda               float64   // the last bounded solve's λ, where the next one starts its walk
	cells, search        int       // DP item-cell updates and the bound's steps, summed over solves
}

// vertex is one point of a group's upper hull and the slope of the hull
// segment that reaches it (+Inf for the first).
type vertex struct {
	Item
	slope float64
}

// MultiChoice solves one instance in a fresh Solver.
func MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	return new(Solver).MultiChoice(groups, capacity)
}

// Work returns the DP item-cell updates and the Lagrangian bound's steps
// (hull vertices scanned, heap entries and moves, slack-pass items) that s
// has made, summed over its solves: the kernel's cost, whatever the machine.
func (s *Solver) Work() (cells, search int) { return s.cells, s.search }

// MultiChoice solves the multiple-choice knapsack problem (§5.2): from each
// group take at most one item, total weight <= capacity, maximize total
// value. It returns the best value and, per group, the index of the chosen
// item within the group or -1 if the group contributes nothing.
//
// This is exactly the formulation Lyra uses for phase-2 allocation: each
// elastic job is a group; the item for "+k workers" has weight k*GPUs and
// value equal to the job's JCT reduction (the paper reports at most 0.02 s
// for 354 items and 245 GPUs). The DP visits every item once per budget of
// its group's band [lo, hi]. The bands are exact (DESIGN.md §10): with maxw
// the heaviest usable item of a group, every budget above hi = min(capacity,
// Σ maxw of groups 0..g) repeats the row's cell at hi, and the recovery walk
// down from capacity never reads group g below lo = capacity - Σ maxw of
// groups g+1.. . Per budget the items are tried in index order against the
// same running best, so ties break as in the textbook DP. When the bands
// average pruneWidth budgets or more, a Lagrangian bound drops every item
// and skips every budget no optimal selection passes through, leaving value
// and choice bit for bit the same.
func (s *Solver) MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	n := len(groups)
	s.ints = grow(s.ints, 9*n+1)
	choice := s.ints[:n]
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 || n == 0 {
		return 0, choice
	}
	big := s.collect(groups, capacity)
	reach, cells := s.band(capacity)
	// Row g keeps budget w only while dp[w] − lam·w ≥ floor − slack[g+1].
	lam, floor, bounded := 0.0, 0.0, cells >= pruneWidth*n
	if bounded {
		lam, floor = s.lagrange(groups, capacity, big)
		s.reduce(groups, lam, floor)
		reach, cells = s.band(capacity)
	}
	s.dp, s.next, s.pick = grow(s.dp, reach+1), grow(s.next, reach+1), grow(s.pick, cells)

	dp, next, updates := s.dp, s.next, 0
	clear(dp[:s.hi[0]+1])
	a, b := 0, s.hi[0] // the previous row's kept budgets; all others read as -Inf
	for g, group := range groups {
		lo, hi := max(s.lo[g], a), min(s.hi[g], b+s.top[g])
		row := s.pick[s.off[g]+lo-s.lo[g]:][:hi-lo+1] // row[i] is budget lo+i
		clear(row)
		keep := max(lo-1, min(hi, b))
		copy(next[lo:keep+1], dp[lo:keep+1])
		for w := keep + 1; w <= hi; w++ {
			next[w] = math.Inf(-1)
		}
		drop := math.Inf(-1) // the items reduce drops, by its own test
		if bounded {
			drop = s.cut(g, floor)
		}
		for k, it := range group[:s.use[g]] {
			from, to := max(lo, a+it.Weight), min(hi, b+it.Weight)
			if from > to || it.Value-lam*float64(it.Weight) < drop {
				continue
			}
			updates += to - from + 1
			dst, p := next[from:to+1], int16(k+1)
			src, pk := dp[from-it.Weight:][:len(dst)], row[from-lo:][:len(dst)]
			for i, best := range dst {
				if v := src[i] + it.Value; v > best+eps {
					dst[i], pk[i] = v, p
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
	s.cells += updates
	w := capacity
	for g := n - 1; g >= 0; g-- {
		if p := s.pick[s.off[g]+min(w, s.hi[g])-s.lo[g]]; p > 0 {
			choice[g] = int(p) - 1
			w -= groups[g][p-1].Weight
		}
	}
	return dp[s.hi[n-1]], choice
}

// collect is MultiChoice's one pass over the items. It checks each group
// against Item's contract, counts its usable items (the prefix of weights up
// to the capacity) with the last one's weight, builds the group's upper hull
// for lagrange as it reads them, and returns the size of the largest group.
func (s *Solver) collect(groups [][]Item, capacity int) (big int) {
	n, total := len(groups), 0
	for _, group := range groups {
		total, big = total+len(group), max(big, len(group))
	}
	if big > MaxGroupItems {
		panic("knapsack: group exceeds MaxGroupItems")
	}
	s.lo, s.hi, s.off, s.top, s.at = s.ints[n:2*n], s.ints[2*n:3*n], s.ints[3*n:4*n], s.ints[4*n:5*n], s.ints[5*n:6*n]
	s.heap, s.use, s.hs = s.ints[6*n:7*n], s.ints[7*n:8*n], s.ints[8*n:]
	hull := grow(s.hull, total+n)[:0]
	for g, group := range groups {
		s.hs[g], s.use[g], s.top[g] = len(hull), 0, 0
		hull = append(hull, vertex{slope: math.Inf(1)}) // "none"
		for i, it := range group {
			if it.Weight < 0 || i > 0 && it.Weight < group[i-1].Weight {
				panic("knapsack: a group's weights must be non-negative and non-decreasing")
			}
			if it.Weight <= capacity {
				hull, s.use[g], s.top[g] = upper(hull, s.hs[g], it), i+1, it.Weight
			}
		}
	}
	s.hs[n], s.hull = len(hull), hull
	return big
}

// upper takes p, no lighter than any point before it, onto the group's
// upper concave hull hull[first:], "none" and then the points taken so far
// up to their highest value, each vertex with the slope of the segment that
// reaches it. The slopes fall strictly along it, and its values rise.
func upper(hull []vertex, first int, p Item) []vertex {
	k := len(hull)
	if p.Value <= hull[k-1].Value {
		return hull
	}
	v := vertex{Item: p}
	for v.slope = math.Inf(1); k > first; k-- { // an equal weight's slope is +Inf: its vertex goes
		if v.slope = (p.Value - hull[k-1].Value) / float64(p.Weight-hull[k-1].Weight); v.slope < hull[k-1].slope {
			break
		}
		v.slope = math.Inf(1)
	}
	return append(hull[:k], v)
}

// band sets every group's band [lo, hi] and pick-row offset from top, and
// returns the last row's reach and the cells of all bands.
func (s *Solver) band(capacity int) (reach, cells int) {
	for g, t := range s.top { // forward: hi[g]
		reach = min(capacity, reach+t)
		s.hi[g] = reach
	}
	need := capacity // backward: lo[g] (no higher than hi[g]) and the row offsets
	for g := len(s.top) - 1; g >= 0; g-- {
		s.lo[g], s.off[g] = min(need, s.hi[g]), cells
		cells += s.hi[g] - s.lo[g] + 1
		need = max(0, need-s.top[g])
	}
	return reach, cells
}

// cut is the excess v − λ·w below which reduce drops group g's items at floor f.
func (s *Solver) cut(g int, f float64) float64 { return f - s.slack[0] + (s.slack[g] - s.slack[g+1]) }

// reduce drops every item whose excess is below its group's cut, floor − S_0
// + P_g, P_g = S_g − S_{g+1} the group's largest: a selection through it is
// worth at most λ·C + S_0 − P_g + v − λ·w < LB − margin, the bound the rows
// are pruned by (DESIGN.md §10). Each group's item of largest excess stays,
// and "none" always does. It trims each usable prefix to its last item kept
// and sets top to that item's weight; the DP skips those dropped inside it.
func (s *Solver) reduce(groups [][]Item, lam, floor float64) {
	for g, group := range groups {
		u, cut := s.use[g], s.cut(g, floor)
		for u > 0 && group[u-1].Value-lam*float64(group[u-1].Weight) < cut {
			u--
		}
		s.use[g], s.top[g] = u, 0
		if u > 0 {
			s.top[g] = group[u-1].Weight
		}
	}
}

// lagrange picks the Lagrange multiplier λ ≥ 0 of the item reduction and
// the row pruning (DESIGN.md §10), the LP relaxation's: the smallest hull
// slope, or 0, at which the hull selection (each group's heaviest vertex
// reached by a slope above λ) fits the capacity, walked to from the last
// bounded solve's λ. Its one pass over the items leaves in s.slack the
// suffix sums of P_g = max(0, max_i v_i − λ·w_i) and returns λ and floor =
// LB − margin − λ·capacity, LB the hull selection traded up into the room.
func (s *Solver) lagrange(groups [][]Item, capacity, big int) (float64, float64) {
	n, lam, w := len(s.top), s.lambda, 0
	s.slack = grow(s.slack, n+1)
	for g := range n {
		k := s.hs[g+1] - 1
		for s.hull[k].slope <= lam { // the first vertex's slope is +Inf
			k--
		}
		s.at[g], w, s.search = k, w+s.hull[k].Weight, s.search+s.hs[g+1]-k
	}
	if w <= capacity {
		w, _ = s.walk(1, w, capacity)
	}
	lam = 0
	if w > capacity {
		w, lam = s.walk(-1, w, capacity)
	}
	// One pass over the items: the slack, and LB traded up into the room.
	room, lb := capacity-w, 0.0
	for g, group := range groups {
		at := s.hull[s.at[g]]
		w, v, r := at.Weight, at.Value, 0.0
		for _, it := range group[:s.use[g]] {
			r = max(r, it.Value-lam*float64(it.Weight))
			if room > 0 && it.Weight-w <= room && it.Value > v {
				room, w, v = room-(it.Weight-w), it.Weight, it.Value
			}
		}
		s.slack[g], lb, s.search = r, lb+v, s.search+s.use[g]
	}
	s.slack[n], s.lambda = 0, lam
	for g := n - 1; g >= 0; g-- {
		s.slack[g] += s.slack[g+1]
	}
	c := lam * float64(capacity)
	margin := 1e-9*(s.slack[0]+c) + float64((n+1)*(n+big+3))*eps
	return lam, lb - margin - c
}

// walk moves the hull selection of weight w through the breakpoints: up
// (d = 1) it adds the groups' next vertices, steepest first, while the
// selection fits and the slope is positive; down (d = −1) it drops their
// selected vertices, shallowest first, until the selection fits, and then
// the rest of the last slope dropped. It returns the selection's weight
// and, down, that slope.
func (s *Solver) walk(d, w, capacity int) (int, float64) {
	h, key := s.heap, s.slack // a heap of the groups by key[g], least first
	next := func(g int) {     // key[g] is the slope of g's next step, +Inf if it has none
		key[g] = math.Inf(1)
		if e := s.at[g] + (d+1)/2; e > s.hs[g] && e < s.hs[g+1] {
			key[g] = -float64(d) * s.hull[e].slope
		}
	}
	for g := range h {
		h[g] = g
		next(g)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, key, i)
	}
	lam := 0.0
	for s.search += len(h); ; s.search++ {
		g := h[0]
		if d > 0 && (w > capacity || key[g] >= 0) || d < 0 && w <= capacity && key[g] != lam {
			return w, lam
		}
		at := s.at[g]
		s.at[g], w, lam = at+d, w+s.hull[at+d].Weight-s.hull[at].Weight, key[g]
		next(g)
		down(h, key, 0)
	}
}

// down sifts h[i] down the heap h of groups, least key first.
func down(h []int, key []float64, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && key[h[c+1]] < key[h[c]] {
			c++
		}
		if key[h[i]] <= key[h[c]] {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// grow returns s with length n, reallocating, to max(n, 2·cap(s)), only
// when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
