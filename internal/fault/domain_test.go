package fault

import (
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// fakeTopo is a hand-shaped failure-domain layout for schedule tests, each
// rack and zone a server ID range [lo, hi); the production implementation
// is cluster.Layout.
type fakeTopo struct {
	servers int
	racks   [][2]int
	zones   [][2]int
}

func (t fakeTopo) NumServers() int         { return t.servers }
func (t fakeTopo) NumRacks() int           { return len(t.racks) }
func (t fakeTopo) NumZones() int           { return len(t.zones) }
func (t fakeTopo) Rack(r int) (lo, hi int) { return t.racks[r][0], t.racks[r][1] }
func (t fakeTopo) Zone(z int) (lo, hi int) { return t.zones[z][0], t.zones[z][1] }

func TestDomainKeysEnabledAndValidated(t *testing.T) {
	if !(&Plan{RackOutMTBF: 3600}).Enabled() {
		t.Error("rack-outage plan reports disabled")
	}
	if !(&Plan{ZoneOutMTBF: 3600}).Enabled() {
		t.Error("zone-outage plan reports disabled")
	}
	for _, p := range []Plan{
		{RackOutMTBF: -1},
		{RackOutMTBF: 10, RackMTTR: -1},
		{ZoneOutMTBF: -1},
		{ZoneOutMTBF: 10, ZoneMTTR: -1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %+v: want error, got nil", p)
		}
	}
}

// TestParsePlanAllKeysRoundTrip covers every spec key the parser accepts,
// including the failure-domain keys, through a ParsePlan -> String ->
// ParsePlan cycle.
func TestParsePlanAllKeysRoundTrip(t *testing.T) {
	spec := "mtbf=21600,mttr=300,rackout=43200,rackmttr=1200,zoneout=86400,zonemttr=2400," +
		"straggler=0.1,slow=0.5,launchfail=0.05,retries=4,seed=7"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, ServerMTBF: 21600, ServerMTTR: 300,
		RackOutMTBF: 43200, RackMTTR: 1200, ZoneOutMTBF: 86400, ZoneMTTR: 2400,
		StragglerFrac: 0.1, SlowFactor: 0.5, LaunchFailProb: 0.05, MaxLaunchRetries: 4}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != want {
		t.Fatalf("round trip %+v, want %+v", back, want)
	}
}

// TestParsePlanRejectionsNameKeyAndValue pins the parser's error contract:
// a bad entry's message names the offending key (or value), so a user can
// find the typo in a long spec.
func TestParsePlanRejectionsNameKeyAndValue(t *testing.T) {
	cases := []struct {
		spec string
		want []string
	}{
		{"bogus=1", []string{"bogus", "rackout", "zoneout"}}, // unknown key lists the valid set
		{"rackout=abc", []string{"rackout", "abc"}},
		{"zonemttr=x", []string{"zonemttr", "x"}},
		{"seed=1.5", []string{"seed", "1.5"}},
		{"mtbf", []string{"mtbf", "key=value"}},
		{"rackout=-5", []string{"RackOutMTBF"}}, // parses, then Validate rejects
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if err == nil {
			err = p.Validate()
		}
		if err == nil {
			t.Errorf("spec %q: want error", c.spec)
			continue
		}
		for _, frag := range c.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("spec %q: error %q does not mention %q", c.spec, err, frag)
			}
		}
	}
}

// TestStringRendersServerMTTRDefault pins the previously silent default:
// a plan given only mtbf normalizes ServerMTTR to 600 s, and String()
// renders it explicitly so the canonical spec is self-describing.
func TestStringRendersServerMTTRDefault(t *testing.T) {
	p, err := ParsePlan("mtbf=7200")
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "mttr=600") {
		t.Fatalf("String() = %q, want explicit mttr=600 default", s)
	}
	// Same for the domain MTTR defaults (rack 900 s, zone 1800 s).
	p, err = ParsePlan("rackout=43200,zoneout=86400")
	if err != nil {
		t.Fatal(err)
	}
	s = p.String()
	for _, frag := range []string{"rackmttr=900", "zonemttr=1800"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q, want explicit %s default", s, frag)
		}
	}
}

// TestFullScheduleLegacyIdentity: without domain keys, FullSchedule is the
// per-server timeline alone — each server's own renewal stream, one
// crash/recovery pair per downtime, nothing merged, no markers — so plans
// without outages keep their exact timelines whatever racks and zones the
// topology has.
func TestFullScheduleLegacyIdentity(t *testing.T) {
	topo := fakeTopo{servers: 16,
		racks: [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}},
		zones: [][2]int{{0, 8}, {8, 16}}}
	p := Plan{Seed: 3, ServerMTBF: 7200, ServerMTTR: 600}
	const horizon = 6 * 86400
	evs, devs := FullSchedule(p, Hysteresis{}, topo, horizon)
	if devs != nil {
		t.Fatalf("no-domain plan produced %d domain events", len(devs))
	}
	var legacy []Event
	var pcg randv2.PCG
	for sid := 0; sid < topo.servers; sid++ {
		for _, iv := range renewal(nil, &pcg, subSeed(p.Seed, sid), p.ServerMTBF, p.ServerMTTR, horizon) {
			legacy = append(legacy, Event{T: iv[0], Server: sid}, Event{T: iv[1], Server: sid, Recover: true})
		}
	}
	sortEvents(legacy)
	if len(legacy) == 0 || !reflect.DeepEqual(evs, legacy) {
		t.Fatal("FullSchedule without domain keys diverges from the per-server renewal streams")
	}
}

// TestFullScheduleRackAtomicity: a rack outage must crash and recover every
// member server, and the merged per-server timeline must stay well-formed
// (alternating crash/recover) even where rack intervals overlap individual
// server downtime.
func TestFullScheduleRackAtomicity(t *testing.T) {
	topo := fakeTopo{servers: 8,
		racks: [][2]int{{0, 4}, {4, 8}},
		zones: [][2]int{{0, 8}}}
	p := Plan{Seed: 11, ServerMTBF: 14400, ServerMTTR: 300, RackOutMTBF: 21600, RackMTTR: 900}
	const horizon = 4 * 86400
	evs, devs := FullSchedule(p, Hysteresis{}, topo, horizon)
	if len(devs) == 0 {
		t.Fatal("rack-outage plan produced no domain events")
	}
	evs2, devs2 := FullSchedule(p, Hysteresis{}, topo, horizon)
	if !reflect.DeepEqual(evs, evs2) || !reflect.DeepEqual(devs, devs2) {
		t.Fatal("same plan produced different full schedules")
	}

	// Index server crash times; every rack-down marker must coincide with a
	// crash (or already-down interval start) for each member. Because
	// intervals are unioned, the member's crash may predate the marker; it
	// must at least be down at the marker's time.
	type iv struct{ start, end float64 }
	downIvs := make(map[int][]iv)
	open := make(map[int]float64)
	downNow := make(map[int]bool)
	last := -1.0
	for i, ev := range evs {
		if ev.T < last {
			t.Fatalf("event %d out of order: t=%g after t=%g", i, ev.T, last)
		}
		last = ev.T
		if ev.Recover {
			if !downNow[ev.Server] {
				t.Fatalf("event %d: recovery of healthy server %d", i, ev.Server)
			}
			downNow[ev.Server] = false
			downIvs[ev.Server] = append(downIvs[ev.Server], iv{open[ev.Server], ev.T})
		} else {
			if downNow[ev.Server] {
				t.Fatalf("event %d: crash of already-crashed server %d", i, ev.Server)
			}
			downNow[ev.Server] = true
			open[ev.Server] = ev.T
		}
	}
	downAt := func(sid int, t float64) bool {
		for _, v := range downIvs[sid] {
			if v.start <= t && t < v.end {
				return true
			}
		}
		return false
	}
	for _, d := range devs {
		if d.Recover || d.Zone {
			continue
		}
		for sid := topo.racks[d.Domain][0]; sid < topo.racks[d.Domain][1]; sid++ {
			if !downAt(sid, d.T) {
				t.Fatalf("rack %d down at t=%g but member server %d is up", d.Domain, d.T, sid)
			}
		}
	}
}

// TestFullScheduleZoneCoversAllMembers: zone outages reach every server in
// the zone, across rack boundaries.
func TestFullScheduleZoneCoversAllMembers(t *testing.T) {
	topo := fakeTopo{servers: 8,
		racks: [][2]int{{0, 4}, {4, 8}},
		zones: [][2]int{{0, 8}}}
	p := Plan{Seed: 5, ZoneOutMTBF: 43200, ZoneMTTR: 600}
	evs, devs := FullSchedule(p, Hysteresis{}, topo, 6*86400)
	if len(devs) == 0 {
		t.Fatal("zone-outage plan produced no domain events")
	}
	crashed := make(map[int]bool)
	for _, ev := range evs {
		if !ev.Recover {
			crashed[ev.Server] = true
		}
	}
	for sid := 0; sid < topo.servers; sid++ {
		if !crashed[sid] {
			t.Fatalf("server %d never crashed under zone outages covering the whole cluster", sid)
		}
	}
	for _, d := range devs {
		if !d.Zone {
			t.Fatalf("rack event %+v from a zone-only plan", d)
		}
	}
}

// TestFullScheduleShorterHorizonIsAPrefix is what lets the engine stop
// generating at its MaxTime: every stream is drawn sequentially, so the
// schedule over a shorter horizon h holds exactly the longer one's events
// before h. A downtime merged across h may recover at a different time, but
// past h on both sides. Repair times are long against the outage rates so
// that most trials have merges straddling h.
func TestFullScheduleShorterHorizonIsAPrefix(t *testing.T) {
	topo := fakeTopo{servers: 32}
	for r := 0; r < 8; r++ {
		topo.racks = append(topo.racks, [2]int{4 * r, 4*r + 4})
	}
	for z := 0; z < 4; z++ {
		topo.zones = append(topo.zones, [2]int{8 * z, 8*z + 8})
	}
	rng := rand.New(rand.NewSource(1))
	merged := 0
	for trial := 0; trial < 60; trial++ {
		p := Plan{Seed: rng.Int63(),
			ServerMTBF: 3000 + rng.Float64()*30000, ServerMTTR: 60 + rng.Float64()*4000,
			RackOutMTBF: 5000 + rng.Float64()*40000, RackMTTR: 300 + rng.Float64()*6000,
			ZoneOutMTBF: 10000 + rng.Float64()*80000, ZoneMTTR: 600 + rng.Float64()*9000}
		switch trial % 4 { // every outage kind also runs without the others
		case 1:
			p.ZoneOutMTBF = 0
		case 2:
			p.RackOutMTBF = 0
		case 3:
			p.ServerMTBF = 0
		}
		H := 20000 + rng.Int63n(80000)
		h := 1 + rng.Int63n(H-1)
		short, shortDom := FullSchedule(p, Hysteresis{}, topo, h)
		long, longDom := FullSchedule(p, Hysteresis{}, topo, H)
		var wantEv []Event
		for _, ev := range long {
			if ev.T < float64(h) {
				wantEv = append(wantEv, ev)
			}
		}
		inLong := make(map[Event]bool, len(long))
		for _, ev := range long {
			inLong[ev] = true
		}
		var gotEv []Event
		for _, ev := range short {
			switch {
			case ev.T < float64(h):
				gotEv = append(gotEv, ev)
			case !ev.Recover:
				t.Fatalf("trial %d: horizon %d scheduled a crash at %g", trial, h, ev.T)
			case !inLong[ev]:
				merged++ // the longer horizon extends this downtime: merged across h
			}
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("trial %d (%v): events before h=%d differ between horizons %d and %d:\n short %v\n long  %v",
				trial, p, h, h, H, gotEv, wantEv)
		}
		var wantDom, gotDom []DomainEvent
		for _, d := range longDom {
			if d.T < float64(h) {
				wantDom = append(wantDom, d)
			}
		}
		for _, d := range shortDom {
			if d.T < float64(h) {
				gotDom = append(gotDom, d)
			}
		}
		if !reflect.DeepEqual(gotDom, wantDom) {
			t.Fatalf("trial %d (%v): domain markers before h=%d differ between horizons %d and %d", trial, p, h, h, H)
		}
	}
	if merged == 0 {
		t.Error("no downtime was merged across h: the test does not reach the case it is for")
	}
}
