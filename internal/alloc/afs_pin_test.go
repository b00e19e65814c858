package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lyra/internal/job"
)

// afsPin is the sha256 of the targets TestAFSDecisionsPinned draws. It
// changes only when AFS's greedy loop does: its gains, its ε tie-breaks and
// the order it visits candidates in.
const afsPin = "2852ce9e133444851cdd7e45bca227ebead29a92168ee36d6d5589cb3badafe9"

// TestAFSDecisionsPinned pins AFS's targets over 300 seeded instances of up
// to 60 candidates, drawn as polluxInstance draws them, bit for bit. One
// ThroughputCache per scaling model serves every call, as the scheduler's
// serves every epoch, so each instance's IDs are offset to stay distinct.
// Under linear scaling every worker gains the same per GPU up to rounding,
// so the ε tie-breaks decide; a third of the instances draw Remaining from
// three values, so equal Remaining falls through to ID order. A third pass
// the candidates ID-sorted, as State.ElasticOrdered does; the rest shuffled.
func TestAFSDecisionsPinned(t *testing.T) {
	h := sha256.New()
	var b [16]byte
	models := [2]job.ScalingModel{job.Linear, job.Imperfect}
	caches := [2]*ThroughputCache{NewThroughputCache(job.Linear), NewThroughputCache(job.Imperfect)}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs, _, capacity := polluxInstance(rng, 1+rng.Intn(60))
		for _, j := range jobs {
			j.ID += int(seed) * 256
			if seed%3 == 1 {
				j.Remaining = float64(1000 * (1 + rng.Intn(3)))
			}
		}
		if seed%3 == 0 {
			slices.SortFunc(jobs, byID)
		}
		out := AFS(jobs, capacity, models[seed%2], caches[seed%2])
		binary.LittleEndian.PutUint64(b[:8], uint64(len(out)))
		h.Write(b[:8])
		for _, e := range out {
			binary.LittleEndian.PutUint64(b[:8], uint64(e.ID))
			binary.LittleEndian.PutUint64(b[8:], uint64(e.Extra))
			h.Write(b[:])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != afsPin {
		t.Errorf("AFS targets hash = %s, want %s", got, afsPin)
	}
}
