package cluster

import "math/bits"

// idset is an ordered set of server slots (ID - Layout.FirstID): one bit per
// slot in words, plus one summary bit per word in sum (bit w of sum is set iff
// words[w] != 0). Insert and remove are O(1) with nothing to shift, and
// ascending iteration skips 4,096 absent slots per summary word, so a
// sparse set over a large cluster is walked in proportion to its members.
// The zero value is the empty set; both levels grow on demand, like
// Cluster.servers, so a slot adopted beyond the home range still fits.
type idset struct {
	words []uint64
	sum   []uint64
	n     int // members
}

// add inserts slot i; inserting a member again changes nothing.
func (s *idset) add(i int) {
	w := i >> 6
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	for len(s.sum) <= w>>6 {
		s.sum = append(s.sum, 0)
	}
	if b := uint64(1) << (i & 63); s.words[w]&b == 0 {
		s.words[w] |= b
		s.sum[w>>6] |= 1 << (w & 63)
		s.n++
	}
}

// del removes slot i and reports whether it was a member.
func (s *idset) del(i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if i < 0 || w >= len(s.words) || s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	if s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (w & 63)
	}
	s.n--
	return true
}

// next returns the smallest member >= i (i >= 0), or -1. Iterate in ascending
// order with `for i := s.next(0); i >= 0; i = s.next(i + 1)`; the set may
// lose or gain members other than i between steps.
func (s *idset) next(i int) int {
	w := i >> 6
	if w >= len(s.words) {
		return -1
	}
	if m := s.words[w] >> (i & 63); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	// The rest of word w is empty: the summary names the next word that is
	// not, starting from the bits above w in w's own summary word.
	w++
	for sw, mask := w>>6, ^uint64(0)<<(w&63); sw < len(s.sum); sw, mask = sw+1, ^uint64(0) {
		if m := s.sum[sw] & mask; m != 0 {
			w = sw<<6 + bits.TrailingZeros64(m)
			return w<<6 + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}
