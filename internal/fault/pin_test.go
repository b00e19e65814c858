package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// unevenTopo lays racks of the given sizes over consecutive server IDs and
// groups consecutive racks into zones of the given rack counts; extra
// servers past the last rack belong to no domain.
func unevenTopo(extra int, rackSizes, zoneRacks []int) fakeTopo {
	var topo fakeTopo
	for _, n := range rackSizes {
		topo.racks = append(topo.racks, [2]int{topo.servers, topo.servers + n})
		topo.servers += n
	}
	r := 0
	for _, n := range zoneRacks {
		topo.zones = append(topo.zones, [2]int{topo.racks[r][0], topo.racks[r+n-1][1]})
		r += n
	}
	topo.servers += extra
	return topo
}

// TestFullSchedulePinned pins FullSchedule's output bit for bit: the sha256
// of every server event and domain event (T as its float64 bits) over 200
// seeded plans whose short MTBFs make server, rack and zone downtimes
// overlap, each run with hysteresis off and on, on topologies with uneven
// racks and zones and servers outside every domain. Any change to the draw
// order, the merge of overlapping downtimes, the hysteresis fold or either
// sort order shows here.
func TestFullSchedulePinned(t *testing.T) {
	topos := []fakeTopo{
		unevenTopo(0, []int{3, 5, 1, 4, 7, 2}, []int{2, 1, 3}),
		unevenTopo(3, []int{8, 8, 6}, []int{1, 2}),
		unevenTopo(1, []int{1, 2, 3, 4, 5, 6}, []int{4, 2}),
		unevenTopo(5, []int{2, 9}, []int{1}),
	}
	rng := rand.New(rand.NewSource(42))
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	var events, domains, held int
	for trial := 0; trial < 200; trial++ {
		topo := topos[trial%len(topos)]
		p := Plan{Seed: rng.Int63(), ServerMTBF: 300 + rng.Float64()*3600, ServerMTTR: 1 + rng.Float64()*900}
		if trial%2 == 0 {
			p.RackOutMTBF, p.RackMTTR = 600+rng.Float64()*7200, 1+rng.Float64()*900
		}
		if trial%3 == 0 {
			p.ZoneOutMTBF, p.ZoneMTTR = 1200+rng.Float64()*14400, 1+rng.Float64()*1800
		}
		hyst := Hysteresis{Crashes: 1 + rng.Intn(3), Window: 300 + rng.Float64()*7200, Hold: 1 + rng.Float64()*1800}
		horizon := int64(10000 + rng.Intn(20000))
		for _, hy := range []Hysteresis{{}, hyst} {
			evs, doms := FullSchedule(p, hy, topo, horizon)
			put(uint64(trial), uint64(len(evs)), uint64(len(doms)))
			for _, ev := range evs {
				put(math.Float64bits(ev.T), uint64(ev.Server), bit(ev.Recover), bit(ev.Held))
				held += int(bit(ev.Held))
			}
			for _, d := range doms {
				put(math.Float64bits(d.T), bit(d.Zone), uint64(d.Domain), bit(d.Recover))
			}
			events += len(evs)
			domains += len(doms)
		}
	}
	if events == 0 || domains == 0 || held == 0 {
		t.Fatalf("%d events, %d domain events, %d held recoveries: the pin is vacuous", events, domains, held)
	}
	const want = "3cb2fa4d291e042dc1f46de1d95cb3c83706e3f4d2205e118d408b6be54e1dda"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s (%d events, %d domain events, %d held)", got, want, events, domains, held)
	}
}
