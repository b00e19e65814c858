package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestMultiChoiceKnownFigure6(t *testing.T) {
	// Figure 6 of the paper: job A (2 GPUs/worker, one extra worker with
	// JCT reduction 0... the figure's values) and job B (1 GPU/worker,
	// four extra workers). Weights are GPUs; values are JCT reductions.
	groups := [][]Item{
		{{Weight: 2, Value: 0}},
		{{Weight: 1, Value: 20}, {Weight: 2, Value: 30}, {Weight: 3, Value: 36}, {Weight: 4, Value: 40}},
	}
	best, choice := MultiChoice(groups, 4)
	if best != 40 {
		t.Errorf("best = %v, want 40 (take B's 4-GPU item)", best)
	}
	if choice[0] != -1 || choice[1] != 3 {
		t.Errorf("choice = %v, want [-1 3]", choice)
	}
}

func TestMultiChoiceRespectsOnePerGroup(t *testing.T) {
	groups := [][]Item{
		{{Weight: 1, Value: 10}, {Weight: 1, Value: 12}},
	}
	best, choice := MultiChoice(groups, 5)
	if best != 12 || choice[0] != 1 {
		t.Errorf("best=%v choice=%v, want 12 picking index 1", best, choice)
	}
}

func TestMultiChoiceEmptyAndNegative(t *testing.T) {
	best, choice := MultiChoice(nil, 10)
	if best != 0 || len(choice) != 0 {
		t.Errorf("empty groups: %v %v", best, choice)
	}
	best, choice = MultiChoice([][]Item{{{Weight: 1, Value: 5}}}, -1)
	if best != 0 || choice[0] != -1 {
		t.Errorf("negative capacity: %v %v", best, choice)
	}
}

func TestMultiChoiceSelectionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		ng := rng.Intn(5) + 1
		groups := make([][]Item, ng)
		for g := range groups {
			items := make([]Item, rng.Intn(4)+1)
			for i := range items {
				items[i] = Item{Weight: rng.Intn(6) + 1, Value: float64(rng.Intn(30))}
			}
			groups[g] = items
		}
		cap := rng.Intn(15)
		best, choice := MultiChoice(groups, cap)
		if len(choice) != ng {
			t.Fatalf("choice length %d != groups %d", len(choice), ng)
		}
		w, v := 0, 0.0
		for g, idx := range choice {
			if idx == -1 {
				continue
			}
			w += groups[g][idx].Weight
			v += groups[g][idx].Value
		}
		if w > cap {
			t.Fatalf("selection overweight: %d > %d", w, cap)
		}
		if math.Abs(v-best) > 1e-9 {
			t.Fatalf("selection value %v != reported best %v", v, best)
		}
	}
}

func TestPropertyMultiChoiceMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ng := rng.Intn(4) + 1
		groups := make([][]Item, ng)
		for g := range groups {
			items := make([]Item, rng.Intn(4)+1)
			for i := range items {
				items[i] = Item{Weight: rng.Intn(6), Value: float64(rng.Intn(40))}
			}
			groups[g] = items
		}
		cap := rng.Intn(12)
		dp, _ := MultiChoice(groups, cap)
		brute, _ := MultiChoiceBrute(groups, cap)
		return math.Abs(dp-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultiChoiceBruteTooLarge(t *testing.T) {
	groups := make([][]Item, 30)
	for i := range groups {
		groups[i] = []Item{{1, 1}, {2, 2}, {3, 3}}
	}
	if v, sel := MultiChoiceBrute(groups, 5); !math.IsNaN(v) || sel != nil {
		t.Error("brute force should refuse huge search spaces")
	}
}

// paperScaleGroups is the instance size §5.2 quotes: 59 groups x 6 items =
// 354 items, solved against 245 GPUs.
func paperScaleGroups(seed int64) [][]Item {
	rng := rand.New(rand.NewSource(seed))
	groups := make([][]Item, 59)
	for g := range groups {
		items := make([]Item, 6)
		for i := range items {
			items[i] = Item{Weight: rng.Intn(8) + 1, Value: rng.Float64() * 100}
		}
		groups[g] = items
	}
	return groups
}

func TestMultiChoicePaperScalePerformance(t *testing.T) {
	// §5.2 reports 354 items / 245 GPUs solved in at most 0.02 s. The
	// fastest of a few solves is held to that bound, so a descheduled test
	// process does not fail it; a warm Solver allocates nothing.
	groups := paperScaleGroups(42)
	var s Solver
	fastest := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		best, choice := s.MultiChoice(groups, 245)
		fastest = min(fastest, time.Since(start))
		if best <= 0 || len(choice) != 59 {
			t.Fatalf("paper-scale MCKP produced best=%v len(choice)=%d", best, len(choice))
		}
	}
	if fastest >= 20*time.Millisecond {
		t.Errorf("paper-scale MCKP took %v, the paper's bound is 20ms", fastest)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.MultiChoice(groups, 245) }); allocs != 0 {
		t.Errorf("warm Solver allocates %v times per solve, want 0", allocs)
	}
}

func TestMultiChoiceGroupTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a group of more than MaxGroupItems items must panic, not wrap its int16 pick")
		}
	}()
	MultiChoice([][]Item{make([]Item, MaxGroupItems+1)}, 1)
}

// MultiChoiceBrute solves MCKP by exhaustive enumeration for verification.
// The product of (len(group)+1) over groups must stay below ~2^22; larger
// inputs return (NaN, nil).
func MultiChoiceBrute(groups [][]Item, capacity int) (float64, []int) {
	total := 1
	for _, g := range groups {
		total *= len(g) + 1
		if total > 1<<22 {
			return math.NaN(), nil
		}
	}
	best := 0.0
	bestChoice := make([]int, len(groups))
	for i := range bestChoice {
		bestChoice[i] = -1
	}
	choice := make([]int, len(groups))
	for i := range choice {
		choice[i] = -1
	}
	var rec func(g int, w int, v float64)
	rec = func(g, w int, v float64) {
		if w > capacity {
			return
		}
		if g == len(groups) {
			if v > best+eps {
				best = v
				copy(bestChoice, choice)
			}
			return
		}
		choice[g] = -1
		rec(g+1, w, v)
		for idx, it := range groups[g] {
			choice[g] = idx
			rec(g+1, w+it.Weight, v+it.Value)
		}
		choice[g] = -1
	}
	rec(0, 0, 0)
	return best, bestChoice
}

// refMultiChoice is the textbook MCKP DP this package shipped before the
// banded Solver, kept verbatim as the oracle: one cell at a time over the
// full capacity of every group, a fresh pick matrix per call. The Solver
// must agree with it bit for bit, value and choice (the tie-breaks are part
// of the golden event stream).
func refMultiChoice(groups [][]Item, capacity int) (float64, []int) {
	choice := make([]int, len(groups))
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 {
		return 0, choice
	}
	// dp[w] after processing g groups; pick[g][w] = item chosen for group
	// g at budget w (-1 = none).
	dp := make([]float64, capacity+1)
	next := make([]float64, capacity+1)
	pick := make([][]int16, len(groups))
	for g, items := range groups {
		pick[g] = make([]int16, capacity+1)
		for w := 0; w <= capacity; w++ {
			next[w] = dp[w]
			pick[g][w] = -1
			for idx, it := range items {
				if it.Weight < 0 || it.Weight > w {
					continue
				}
				if v := dp[w-it.Weight] + it.Value; v > next[w]+eps {
					next[w] = v
					pick[g][w] = int16(idx)
				}
			}
		}
		dp, next = next, dp
	}
	// Recover choices.
	w := capacity
	for g := len(groups) - 1; g >= 0; g-- {
		idx := pick[g][w]
		choice[g] = int(idx)
		if idx >= 0 {
			w -= groups[g][idx].Weight
		}
	}
	return dp[capacity], choice
}

// randomInstance draws one MCKP instance of up to maxGroups groups. mode
// picks the value distribution: random floats, small integers (many exact
// ties), multiples of eps/2 (differences at the comparison threshold) or
// signed values. Weights run from -1 (skipped by the DP) and 0 (free) up;
// some groups are empty; the capacity runs from -2 past the sum of the
// heaviest items, so both band edges and the everything-fits case occur.
// From 100 allowed groups, half the instances are production-shaped
// instead (prodInstance), large enough for the bound to engage.
func randomInstance(rng *rand.Rand, maxGroups int) ([][]Item, int) {
	if maxGroups >= 100 && rng.Intn(2) == 0 {
		return prodInstance(rng, 100+rng.Intn(min(maxGroups, 300)-99), rng.Intn(4) == 0)
	}
	mode, maxWeight := rng.Intn(4), rng.Intn(12)+1
	groups := make([][]Item, rng.Intn(maxGroups+1))
	reach := 0
	for g := range groups {
		items := make([]Item, rng.Intn(6))
		maxw := 0
		for i := range items {
			it := Item{Weight: rng.Intn(maxWeight+2) - 1}
			switch mode {
			case 0:
				it.Value = rng.Float64() * 100
			case 1:
				it.Value = float64(rng.Intn(4))
			case 2:
				it.Value = float64(rng.Intn(9)) * 0.5e-9
			default:
				it.Value = rng.Float64()*20 - 10
			}
			items[i] = it
			maxw = max(maxw, it.Weight)
		}
		groups[g] = items
		reach += maxw
	}
	return groups, rng.Intn(reach+6) - 2
}

// prodInstance draws a phase-2-shaped instance of n groups: per job a
// worker size and one to six items of ascending weight with concave,
// increasing values between 1e2 and 1e5 (JCT reductions), one of them
// raised by the stability bonus 1.08, and a capacity around a third of the
// heaviest items' sum. A quarter of the groups repeat an earlier group, so
// exact ties occur across groups; epsScale shrinks every value to around
// eps, where the DP's tie hysteresis decides.
func prodInstance(rng *rand.Rand, n int, epsScale bool) ([][]Item, int) {
	groups := make([][]Item, n)
	reach := 0
	for g := range groups {
		if g > 0 && rng.Intn(4) == 0 {
			groups[g] = groups[rng.Intn(g)]
		} else {
			items := make([]Item, rng.Intn(6)+1)
			step, scale := rng.Intn(8)+1, math.Pow(10, 2+3*rng.Float64())
			if epsScale {
				scale *= 1e-13
			}
			for i := range items {
				items[i] = Item{Weight: step * (i + 1), Value: scale * math.Sqrt(float64(i+1)/float64(len(items)))}
			}
			items[rng.Intn(len(items))].Value *= 1.08
			groups[g] = items
		}
		reach += groups[g][len(groups[g])-1].Weight
	}
	return groups, reach/3 + rng.Intn(reach/10+1) - reach/20
}

// checkAgainstReference solves one instance through s and through the
// reference DP and requires bit-equal value and identical choice.
func checkAgainstReference(t *testing.T, s *Solver, groups [][]Item, capacity int) {
	t.Helper()
	got, gotChoice := s.MultiChoice(groups, capacity)
	want, wantChoice := refMultiChoice(groups, capacity)
	if math.Float64bits(got) != math.Float64bits(want) || !slices.Equal(gotChoice, wantChoice) {
		t.Fatalf("Solver = (%v, %v), reference = (%v, %v)\ncapacity %d groups %v",
			got, gotChoice, want, wantChoice, capacity, groups)
	}
}

func TestPropertyMultiChoiceMatchesReference(t *testing.T) {
	// One reused Solver through instances of growing and shrinking size:
	// stale rows, picks and bands from a larger solve must never leak into
	// a smaller one.
	rng := rand.New(rand.NewSource(17))
	var s Solver
	for trial := 0; trial < 4000; trial++ {
		maxGroups := []int{3, 40, 8, 1, 20}[trial%5]
		groups, capacity := randomInstance(rng, maxGroups)
		checkAgainstReference(t, &s, groups, capacity)
	}
	// Production-shaped instances, where the Lagrangian bound prunes rows,
	// between small ones that do not engage it.
	for trial := 0; trial < 60; trial++ {
		groups, capacity := prodInstance(rng, 100+rng.Intn(201), trial%3 == 2)
		checkAgainstReference(t, &s, groups, capacity)
		groups, capacity = randomInstance(rng, 12)
		checkAgainstReference(t, &s, groups, capacity)
	}
	// Band edges by hand: nothing fits, everything fits, all groups empty.
	tight := [][]Item{{{Weight: 3, Value: 1}}, {}, {{Weight: 0, Value: 2}, {Weight: 2, Value: 2}}}
	for _, capacity := range []int{0, 1, 5, 6, 1000} {
		checkAgainstReference(t, &s, tight, capacity)
	}
	checkAgainstReference(t, &s, [][]Item{{}, {}}, 4)
}

func TestMultiChoiceBoundPrunesProductionShape(t *testing.T) {
	// The pick arena is cleared only where a row is computed: marking it
	// before a solve counts the cells the bound skipped.
	rng := rand.New(rand.NewSource(3))
	var s Solver
	for trial := 0; trial < 10; trial++ {
		groups, capacity := prodInstance(rng, 100+rng.Intn(201), false)
		checkAgainstReference(t, &s, groups, capacity)
		for i := range s.pick {
			s.pick[i] = -1
		}
		checkAgainstReference(t, &s, groups, capacity)
		skipped := 0
		for _, p := range s.pick {
			if p == -1 {
				skipped++
			}
		}
		if skipped*2 < len(s.pick) {
			t.Errorf("trial %d: the bound skipped %d of %d banded cells, want at least half", trial, skipped, len(s.pick))
		}
		if allocs := testing.AllocsPerRun(5, func() { s.MultiChoice(groups, capacity) }); allocs != 0 {
			t.Errorf("a warm bounded solve allocates %v times, want 0", allocs)
		}
	}
}

// medianProdIdealGroups has the shape of the median phase-2 instance of the
// repository benchmark's prod-ideal workload (seed 1, 1,232 solves): 277
// groups, 854 items, capacity 1,042, the heaviest items summing to about
// three times the capacity.
func medianProdIdealGroups() [][]Item {
	rng := rand.New(rand.NewSource(1))
	groups := make([][]Item, 277)
	for g := range groups {
		items := make([]Item, 3)
		if g%12 == 1 {
			items = make([]Item, 4) // 254*3 + 23*4 = 854 items
		}
		step := rng.Intn(7) + 1 // heaviest item 3..28 GPUs, 12 on average
		for i := range items {
			items[i] = Item{Weight: step * (i + 1), Value: rng.Float64() * 1000 * float64(i+1) / float64(i+2)}
		}
		groups[g] = items
	}
	return groups
}

// medianGroups draws n groups holding the given number of items between
// them, evenly spread, with weights in steps of 1 or 2 GPUs and the values
// of medianProdIdealGroups: the median phase-2 instances of the benchmark's
// registry-sim (22 groups, 124 items, capacity 42: a band width below the
// kernel's bound cutoff) and prod-basic (76 groups, 543 items, capacity
// 281: above it). prod-sharded's median solve has 17 groups and 124 items
// and a mean band width of 26; these heavier items reach that width at
// capacity 32 (its median capacity, 65, would band them 42 wide).
func medianGroups(n, items int) [][]Item {
	rng := rand.New(rand.NewSource(1))
	groups := make([][]Item, n)
	for g := range groups {
		group := make([]Item, items/n+min(1, max(0, items%n-g)))
		step := rng.Intn(2) + 1
		for i := range group {
			group[i] = Item{Weight: step * (i + 1), Value: rng.Float64() * 1000 * float64(i+1) / float64(i+2)}
		}
		groups[g] = group
	}
	return groups
}

// BenchmarkMultiChoice is the kernel's one-second loop (make bench): a warm
// Solver as the scheduler holds one, the zero-workspace package function,
// and the reference DP for the ratio.
func BenchmarkMultiChoice(b *testing.B) {
	for _, shape := range []struct {
		name     string
		groups   [][]Item
		capacity int
	}{
		{"paper-59x6-cap245", paperScaleGroups(42), 245},
		{"registry-median-22g-124i-cap42", medianGroups(22, 124), 42},
		{"prod-sharded-median-17g-124i-cap32", medianGroups(17, 124), 32},
		{"prod-basic-median-76g-543i-cap281", medianGroups(76, 543), 281},
		{"prod-ideal-median-277g-854i-cap1042", medianProdIdealGroups(), 1042},
	} {
		var s Solver
		for _, solve := range []struct {
			name string
			fn   func([][]Item, int) (float64, []int)
		}{{"warm", s.MultiChoice}, {"fresh", MultiChoice}, {"reference", refMultiChoice}} {
			b.Run(shape.name+"/"+solve.name, func(b *testing.B) {
				solve.fn(shape.groups, shape.capacity) // warm even at -benchtime 1x
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solve.fn(shape.groups, shape.capacity)
				}
			})
		}
	}
}

// refBound is Solver.bound as it stood before the multiplier search
// narrowed to the groups still open, kept verbatim as the oracle of the λ
// sequence: every probe of the bisection is a full relaxation pass, and the
// final λ is evaluated twice. The Solver's bound must return the same λ,
// floor and ok bit for bit, and carry the same λ into the next solve.
func (s *Solver) refBound(groups [][]Item, capacity, big int) (float64, float64, bool) {
	n := len(groups)
	s.slack = grow(s.slack, n+1)
	fits := func(lam float64) bool {
		w, _ := s.refRelax(groups, capacity, lam, 0)
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
	w, _ := s.refRelax(groups, capacity, lam, 0)
	_, lb := s.refRelax(groups, capacity, lam, capacity-w)
	s.slack[n] = 0
	for g := n - 1; g >= 0; g-- {
		s.slack[g] += s.slack[g+1]
	}
	c := lam * float64(capacity)
	margin := 1e-9*(s.slack[0]+c) + float64((n+1)*(n+big+3))*eps
	return lam, lb - margin - c, true
}

// refRelax is the relaxation pass refBound makes, kept verbatim with it.
func (s *Solver) refRelax(groups [][]Item, capacity int, lam float64, room int) (int, float64) {
	weight, value := 0, 0.0
	for g, items := range groups {
		best, w, v := 0.0, 0, 0.0
		for _, it := range items {
			if r := it.Value - lam*float64(it.Weight); it.Weight >= 0 && it.Weight <= capacity && r > best {
				best, w, v = r, it.Weight, it.Value
			}
		}
		s.slack[g] = best
		for _, it := range items {
			if room > 0 && it.Weight >= 0 && it.Weight-w <= room && it.Value > v {
				room, w, v = room-(it.Weight-w), it.Weight, it.Value
			}
		}
		weight, value = weight+w, value+v
	}
	return weight, value
}

func TestBoundMatchesFullPassBisection(t *testing.T) {
	// One reused Solver and one reference Solver, each carrying its own λ
	// from draw to draw, through production-shaped instances (duplicated
	// groups, eps-scale values) and random ones (ties, negative values,
	// weights -1 and 0, empty groups): the multiplier, the floor, the
	// suffix sums the rows are pruned by and whether a bound exists at all
	// must be the full-pass bisection's, bit for bit.
	rng := rand.New(rand.NewSource(29))
	var s, ref Solver
	draws, bounded := 0, 0
	for draws < 400 {
		var groups [][]Item
		var capacity int
		switch draws % 4 {
		case 0, 1:
			groups, capacity = prodInstance(rng, 100+rng.Intn(201), draws%8 == 1)
		case 2:
			groups, capacity = randomInstance(rng, 200)
		default:
			groups, capacity = randomInstance(rng, 30)
		}
		if capacity < 0 || len(groups) == 0 {
			continue // MultiChoice returns before it bounds
		}
		draws++
		big := 0
		for _, items := range groups {
			big = max(big, len(items))
		}
		lam, floor, ok := s.bound(groups, capacity, big)
		wantLam, wantFloor, wantOK := ref.refBound(groups, capacity, big)
		if ok != wantOK || math.Float64bits(lam) != math.Float64bits(wantLam) ||
			math.Float64bits(floor) != math.Float64bits(wantFloor) || math.Float64bits(s.lambda) != math.Float64bits(ref.lambda) {
			t.Fatalf("draw %d: bound = (%v, %v, %v) carrying %v, full-pass bisection = (%v, %v, %v) carrying %v",
				draws, lam, floor, ok, s.lambda, wantLam, wantFloor, wantOK, ref.lambda)
		}
		for g := 0; ok && g <= len(groups); g++ {
			if math.Float64bits(s.slack[g]) != math.Float64bits(ref.slack[g]) {
				t.Fatalf("draw %d: slack[%d] = %v, full-pass bisection %v", draws, g, s.slack[g], ref.slack[g])
			}
		}
		if ok && lam > 0 {
			bounded++
		}
	}
	if bounded < 250 {
		t.Fatalf("only %d of %d draws needed a positive multiplier: the sequence tests too little", bounded, draws)
	}
}
