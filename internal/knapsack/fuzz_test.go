package knapsack

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMultiChoiceAgainstBrute cross-checks the MCKP DP.
func FuzzMultiChoiceAgainstBrute(f *testing.F) {
	f.Add(uint32(0xdeadbeef), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, bits uint32, ng, capacity uint8) {
		groups := make([][]Item, int(ng)%4+1)
		for g := range groups {
			items := make([]Item, int(bits>>(uint(g)*3))%3+1)
			for i := range items {
				items[i] = Item{
					Weight: int(bits>>(uint(g+i)%20)) % 6,
					Value:  float64((int(bits) * (g + i + 2)) % 30),
				}
			}
			groups[g] = ascending(items)
		}
		capGPUs := int(capacity) % 14
		dp, choice := MultiChoice(groups, capGPUs)
		brute, _ := MultiChoiceBrute(groups, capGPUs)
		if math.Abs(dp-brute) > 1e-9 {
			t.Fatalf("dp=%v brute=%v groups=%v cap=%d", dp, brute, groups, capGPUs)
		}
		w, v := 0, 0.0
		for g, idx := range choice {
			if idx < 0 {
				continue
			}
			w += groups[g][idx].Weight
			v += groups[g][idx].Value
		}
		if w > capGPUs || math.Abs(v-dp) > 1e-9 {
			t.Fatalf("choice inconsistent: w=%d v=%v dp=%v", w, v, dp)
		}
	})
}

// FuzzMultiChoiceAgainstReference drives one reused Solver through a
// fuzzer-chosen sequence of instances, large then small then large again,
// and requires every solve to be bit-equal in value and choice to the
// reference DP (refMultiChoice). From 100 groups up, randomInstance also
// draws production-shaped instances, where the Lagrangian bound engages,
// half of them with items moved to the edge of the item reduction and a
// quarter with groups that share their hull slopes.
func FuzzMultiChoiceAgainstReference(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(-7), uint8(2), uint8(60))
	f.Add(int64(1<<40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(5))
	f.Add(int64(4), uint8(255), uint8(255))
	f.Add(int64(3), uint8(150), uint8(120))
	// First instances in nearCut's mode: items on the edge of the reduction.
	f.Add(int64(2), uint8(120), uint8(120))
	f.Add(int64(3), uint8(120), uint8(30))
	f.Add(int64(6), uint8(255), uint8(200))
	f.Add(int64(7), uint8(120), uint8(0))
	f.Add(int64(8), uint8(120), uint8(255))
	// First instances in shareSlopes' mode: λ on a slope many groups share.
	f.Add(int64(2), uint8(255), uint8(3))
	f.Add(int64(5), uint8(200), uint8(150))
	f.Add(int64(7), uint8(255), uint8(40))
	f.Add(int64(11), uint8(120), uint8(255))
	f.Add(int64(16), uint8(200), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, first, second uint8) {
		rng := rand.New(rand.NewSource(seed))
		var s Solver
		for _, maxGroups := range []int{int(first), int(second), int(first)} {
			groups, capacity := randomInstance(rng, maxGroups)
			checkAgainstReference(t, &s, groups, capacity)
		}
	})
}
