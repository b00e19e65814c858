package fault

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestHysteresisFold walks one server's merged downtimes through the fold.
// The cases follow the engine's rules: a recovery whose trailing window
// holds Crashes applied crashes is refused and retried Hold seconds later;
// a crash at or before that retry strikes a server still in quarantine (at
// equal times the engine applied crashes before recoveries), so it is never
// applied, and its downtime's end is the next attempt; a crash exactly
// Window seconds old is out of the window.
func TestHysteresisFold(t *testing.T) {
	const sid = 4
	crash := func(at float64) Event { return Event{T: at, Server: sid} }
	up := func(at float64) Event { return Event{T: at, Server: sid, Recover: true} }
	held := func(at float64) Event { return Event{T: at, Server: sid, Recover: true, Held: true} }
	for _, tc := range []struct {
		name string
		h    Hysteresis
		down [][2]float64
		want []Event
	}{
		{"below the threshold", Hysteresis{Crashes: 3, Window: 3600, Hold: 900},
			[][2]float64{{0, 100}, {200, 300}},
			[]Event{crash(0), up(100), crash(200), up(300)}},
		{"at the threshold", Hysteresis{Crashes: 2, Window: 500, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}},
			[]Event{crash(0), up(100), crash(200), held(300), up(600)}},
		{"a crash before the retry is dropped", Hysteresis{Crashes: 2, Window: 500, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}, {450, 520}},
			[]Event{crash(0), up(100), crash(200), held(300), up(520)}},
		{"a crash at the retry is dropped", Hysteresis{Crashes: 2, Window: 500, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}, {600, 700}},
			[]Event{crash(0), up(100), crash(200), held(300), up(700)}},
		{"a crash after the retry is applied", Hysteresis{Crashes: 2, Window: 500, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}, {601, 700}},
			[]Event{crash(0), up(100), crash(200), held(300), up(600), crash(601), up(700)}},
		{"the dropped downtime's end is held too", Hysteresis{Crashes: 2, Window: 1000, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}, {450, 520}},
			[]Event{crash(0), up(100), crash(200), held(300), held(520), held(820), up(1120)}},
		{"crashes age out during a hold", Hysteresis{Crashes: 2, Window: 1000, Hold: 300},
			[][2]float64{{0, 100}, {200, 300}},
			[]Event{crash(0), up(100), crash(200), held(300), held(600), held(900), up(1200)}},
		{"off", Hysteresis{},
			[][2]float64{{0, 100}, {200, 300}},
			[]Event{crash(0), up(100), crash(200), up(300)}},
		{"no hold is off", Hysteresis{Crashes: 1, Window: 500},
			[][2]float64{{0, 100}},
			[]Event{crash(0), up(100)}},
	} {
		got, _ := tc.h.fold(nil, nil, sid, tc.down)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

// TestHysteresisScheduleProperty checks folded schedules over random plans
// and hysteresis settings. Per server the timeline is a sequence of crash,
// zero or more Held entries, then a recovery; every crash it keeps is one
// of the unfolded schedule's; and at every attempt the crashes it keeps
// inside the trailing window — the crashes the engine applies — number
// exactly Crashes where the attempt is Held and fewer where the server
// recovers. With one crash applied at most between two attempts, the count
// can never exceed the threshold, so the hold needs no escalation.
func TestHysteresisScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo := fakeTopo{servers: 12,
		racks: [][2]int{{0, 4}, {4, 8}, {8, 12}},
		zones: [][2]int{{0, 6}, {6, 12}}}
	held := 0
	for trial := 0; trial < 200; trial++ {
		p := Plan{Seed: rng.Int63(), ServerMTBF: 300 + rng.Float64()*7200, ServerMTTR: 1 + rng.Float64()*900}
		if trial%2 == 0 {
			p.RackOutMTBF, p.RackMTTR = 2000+rng.Float64()*20000, 1+rng.Float64()*900
		}
		if trial%3 == 0 {
			p.ZoneOutMTBF, p.ZoneMTTR = 5000+rng.Float64()*40000, 1+rng.Float64()*1800
		}
		h := Hysteresis{Crashes: 1 + rng.Intn(4), Window: 300 + rng.Float64()*7200, Hold: 1 + rng.Float64()*1800}
		const horizon = 86400
		plain, _ := FullSchedule(p, Hysteresis{}, topo, horizon)
		folded, _ := FullSchedule(p, h, topo, horizon)
		scheduled := map[Event]bool{}
		for _, ev := range plain {
			scheduled[ev] = true
		}
		crashes := map[int][]float64{}
		down := map[int]bool{}
		last := -1.0
		for i, ev := range folded {
			if ev.T < last {
				t.Fatalf("trial %d: entry %d out of order", trial, i)
			}
			last = ev.T
			sid := ev.Server
			if !ev.Recover {
				if down[sid] {
					t.Fatalf("trial %d: entry %d crashes server %d while it is down", trial, i, sid)
				}
				if !scheduled[ev] {
					t.Fatalf("trial %d: entry %d is a crash the plan never scheduled: %+v", trial, i, ev)
				}
				down[sid] = true
				crashes[sid] = append(crashes[sid], ev.T)
				continue
			}
			if !down[sid] {
				t.Fatalf("trial %d: entry %d recovers healthy server %d", trial, i, sid)
			}
			recent := 0
			for _, c := range crashes[sid] {
				if c > ev.T-h.Window {
					recent++
				}
			}
			switch {
			case ev.Held && recent != h.Crashes:
				t.Fatalf("trial %d: entry %d held with %d crashes in the window, want exactly %d", trial, i, recent, h.Crashes)
			case !ev.Held && recent >= h.Crashes:
				t.Fatalf("trial %d: entry %d recovers with %d crashes in the window (threshold %d)", trial, i, recent, h.Crashes)
			case ev.Held:
				held++
			default:
				down[sid] = false
			}
		}
		for sid, d := range down {
			if d {
				t.Fatalf("trial %d: server %d never recovers", trial, sid)
			}
		}
	}
	if held == 0 {
		t.Fatal("no recovery was held in any trial; the property is vacuous")
	}
}
