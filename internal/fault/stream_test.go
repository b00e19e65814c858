package fault

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The fault draw is a sample, not a recorded sequence: what the rest of the
// repository relies on is its distribution and the independence of its
// streams. These tests hold that at fixed seeds, against the closed forms —
// nothing here knows what any particular generator would have drawn.

// ksStat is the Kolmogorov–Smirnov distance between the sample and a
// distribution given by its CDF at x and the CDF's left limit there (the two
// differ at an atom, such as the one-second down-time floor).
func ksStat(xs []float64, cdf func(x float64) (left, at float64)) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n, d := float64(len(xs)), 0.0
	for i, x := range xs {
		left, at := cdf(x)
		if i == 0 || xs[i-1] != x {
			d = math.Max(d, math.Abs(left-float64(i)/n))
		}
		if i == len(xs)-1 || xs[i+1] != x {
			d = math.Max(d, math.Abs(float64(i+1)/n-at))
		}
	}
	return d
}

// ksBound is the α = 0.001 critical value of the one-sample KS test.
func ksBound(n int) float64 { return 1.95 / math.Sqrt(float64(n)) }

func expCDF(mean float64) func(float64) (float64, float64) {
	return func(x float64) (float64, float64) {
		f := 1 - math.Exp(-x/mean)
		return f, f
	}
}

// One long stream: its up-time gaps are Exp(mtbf) and its down-times
// max(1, Exp(mttr)). A repair time of 4 s puts 22% of the mass on the floor,
// so the atom is tested, not avoided.
func TestRenewalGapsFollowTheirDistributions(t *testing.T) {
	const mtbf, mttr = 900.0, 4.0
	var pcg rand.PCG
	ivs := renewal(nil, &pcg, subSeed(5, 0), mtbf, mttr, 20_000_000)
	if len(ivs) < 20000 {
		t.Fatalf("%d intervals: too few for the bound to mean anything", len(ivs))
	}
	ups, downs := make([]float64, len(ivs)), make([]float64, len(ivs))
	end, floored := 0.0, 0
	for i, iv := range ivs {
		ups[i], downs[i] = iv[0]-end, iv[1]-iv[0]
		end = iv[1]
		if downs[i] < 1 {
			t.Fatalf("interval %d: down-time %g under the one-second floor", i, downs[i])
		}
		if downs[i] == 1 {
			floored++
		}
	}
	if d, b := ksStat(ups, expCDF(mtbf)), ksBound(len(ups)); d > b {
		t.Errorf("up-time gaps vs Exp(%g): KS distance %.4f > %.4f (n=%d)", mtbf, d, b, len(ups))
	}
	floorCDF := func(x float64) (float64, float64) {
		if x < 1 {
			return 0, 0
		}
		f := 1 - math.Exp(-x/mttr)
		if x == 1 {
			return 0, f
		}
		return f, f
	}
	if d, b := ksStat(downs, floorCDF), ksBound(len(downs)); d > b {
		t.Errorf("down-times vs max(1, Exp(%g)): KS distance %.4f > %.4f (n=%d)", mttr, d, b, len(downs))
	}
	if want := 1 - math.Exp(-1/mttr); math.Abs(float64(floored)/float64(len(downs))-want) > 0.01 {
		t.Errorf("%d of %d down-times on the floor, want a share of %.3f", floored, len(downs), want)
	}
}

// firstDraws returns the first up-time and the first down-time of stream id,
// each in units of its mean: the repair time is so long against the horizon
// that the stream holds exactly one interval.
func firstDraws(pcg *rand.PCG, seed int64, id int) (up, down float64) {
	const mttr = 1e12
	ivs := renewal(nil, pcg, subSeed(seed, id), 1, mttr, 1000)
	return ivs[0][0], (ivs[0][1] - ivs[0][0]) / mttr
}

func pearson(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx, my = mx/float64(len(x)), my/float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

// At the scale tier most streams draw one or two variates, so what matters is
// the first draws across streams: over 10k adjacent IDs they are Exp(1), and
// stream id tells nothing about stream id+1 — nor does a server's stream
// about the rack's or the zone's with the same index.
func TestAdjacentStreamsAreUncorrelated(t *testing.T) {
	const n, seed = 10000, 11
	var pcg rand.PCG
	firsts := map[string][]float64{}
	for _, k := range []struct {
		name string
		salt int64
	}{{"server", 0}, {"rack", rackSeedSalt}, {"zone", zoneSeedSalt}} {
		ups, downs := make([]float64, n+1), make([]float64, n+1)
		for id := range ups {
			ups[id], downs[id] = firstDraws(&pcg, seed^k.salt, id)
		}
		firsts[k.name] = ups
		if d, b := ksStat(ups, expCDF(1)), ksBound(len(ups)); d > b {
			t.Errorf("%s keys: first up-times vs Exp(1): KS distance %.4f > %.4f", k.name, d, b)
		}
		for _, c := range []struct {
			what string
			x, y []float64
		}{
			{"up-times of id and id+1", ups[:n], ups[1:]},
			{"down-times of id and id+1", downs[:n], downs[1:]},
			{"up-time and down-time of one stream", ups, downs},
		} {
			if r := pearson(c.x, c.y); math.Abs(r) >= 0.03 {
				t.Errorf("%s keys: %s correlate, r = %.4f", k.name, c.what, r)
			}
		}
	}
	for _, pair := range [][2]string{{"server", "rack"}, {"server", "zone"}, {"rack", "zone"}} {
		if r := pearson(firsts[pair[0]], firsts[pair[1]]); math.Abs(r) >= 0.03 {
			t.Errorf("%s and %s streams of one index correlate, r = %.4f", pair[0], pair[1], r)
		}
	}
}

// The scale tier's dimensions (benchmark workload scale-faulted, the 100x
// tier of BenchmarkEpoch): 44,300 training and 52,000 inference servers in
// racks of 8 that never span the two, 108,338 streams over a 7,201 s window.
const (
	scaleTraining, scaleInference = 44300, 52000
	scaleHorizon                  = 7201
)

var scalePlan = Plan{Seed: 3, ServerMTBF: 86400, ServerMTTR: 600, RackOutMTBF: 43200, RackMTTR: 900}

// scaleHyst is the scale tier's quarantine hysteresis, lyra's defaults.
var scaleHyst = Hysteresis{Crashes: 3, Window: 3600, Hold: 900}

func scaleTopo() fakeTopo {
	topo := fakeTopo{servers: scaleTraining + scaleInference}
	for _, seg := range [][2]int{{0, scaleTraining}, {scaleTraining, topo.servers}} {
		for lo := seg[0]; lo < seg[1]; lo += 8 {
			topo.racks = append(topo.racks, [2]int{lo, min(lo+8, seg[1])})
		}
	}
	return topo
}

// Each source crashes about N·T/(mtbf+mttr) times: a count 4σ off would mean
// the generator's first variates, which are nearly all this window sees, are
// not exponential in the tail that decides whether a stream crashes at all.
func TestCrashCountAtScaleDimensions(t *testing.T) {
	topo := scaleTopo()
	check := func(source string, got, streams int, mtbf, mttr float64) {
		mean := float64(streams) * scaleHorizon / (mtbf + mttr)
		if sigma := math.Sqrt(mean); math.Abs(float64(got)-mean) > 4*sigma {
			t.Errorf("%s: %d crashes over %d streams, want %.0f ± %.0f", source, got, streams, mean, 4*sigma)
		}
	}
	for _, seed := range []int64{3, 9} {
		p := scalePlan
		p.Seed = seed
		serverOnly := p
		serverOnly.RackOutMTBF = 0
		crashes, _ := FullSchedule(serverOnly, Hysteresis{}, topo, scaleHorizon)
		check("servers", len(crashes)/2, topo.servers, p.ServerMTBF, p.ServerMTTR)
		_, domains := FullSchedule(p, Hysteresis{}, topo, scaleHorizon)
		check("racks", len(domains)/2, len(topo.racks), p.RackOutMTBF, p.RackMTTR)
	}
}

// The schedule's allocations are its buffers growing — the flat downtime
// timeline, one stream's draw, the merged downtimes, the hysteresis scratch
// and the two event lists — not its events or its 108,338 streams: a
// per-event or per-stream allocation would count in the thousands.
func TestFullScheduleAllocatesBuffersNotEvents(t *testing.T) {
	const bound = 100
	topo := scaleTopo()
	for _, h := range []Hysteresis{{}, scaleHyst} {
		events, _ := FullSchedule(scalePlan, h, topo, scaleHorizon)
		if allocs := testing.AllocsPerRun(1, func() { FullSchedule(scalePlan, h, topo, scaleHorizon) }); allocs > bound {
			t.Errorf("hysteresis %+v: %.0f allocations for %d events over %d streams, want at most %d",
				h, allocs, len(events), topo.servers+len(topo.racks), bound)
		}
	}
}

var benchEvents []Event

func BenchmarkFullSchedule(b *testing.B) {
	topo := scaleTopo()
	for _, bc := range []struct {
		name string
		h    Hysteresis
	}{{"hysteresis=off", Hysteresis{}}, {"hysteresis=on", scaleHyst}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEvents, _ = FullSchedule(scalePlan, bc.h, topo, scaleHorizon)
			}
		})
	}
}
