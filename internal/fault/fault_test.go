package fault

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

func TestEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	if (&Plan{Seed: 42}).Enabled() {
		t.Error("seed-only plan reports enabled")
	}
	for _, p := range []Plan{
		{ServerMTBF: 3600},
		{StragglerFrac: 0.1},
		{LaunchFailProb: 0.05},
	} {
		p := p
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestNormalizeIdempotentAndDefaults(t *testing.T) {
	p := Plan{ServerMTBF: 3600, StragglerFrac: 0.2, LaunchFailProb: 0.1}
	n := p.Normalize()
	if n.ServerMTTR != 600 || n.SlowFactor != 0.5 || n.MaxLaunchRetries != 5 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if again := n.Normalize(); !reflect.DeepEqual(again, n) {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
	if z := (Plan{}).Normalize(); !reflect.DeepEqual(z, Plan{}) {
		t.Fatalf("zero plan does not normalize to itself: %+v", z)
	}
	// A disabled plan with leftover knobs (seed, retry bound) canonicalizes
	// to the zero plan: "no faults" must have one content-hash identity.
	if z := (Plan{Seed: 42, MaxLaunchRetries: 3}).Normalize(); !reflect.DeepEqual(z, Plan{}) {
		t.Fatalf("disabled plan does not normalize to zero: %+v", z)
	}
}

func TestValidate(t *testing.T) {
	good := []Plan{
		{},
		{ServerMTBF: 3600, ServerMTTR: 60},
		{StragglerFrac: 1, SlowFactor: 1},
		{LaunchFailProb: 0.99},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %+v: unexpected error %v", p, err)
		}
	}
	bad := []Plan{
		{ServerMTBF: -1},
		{ServerMTBF: 10, ServerMTTR: -1},
		{StragglerFrac: 1.5},
		{StragglerFrac: 0.5, SlowFactor: 2},
		{LaunchFailProb: 1},
		{LaunchFailProb: 0.1, MaxLaunchRetries: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %+v: want error, got nil", p)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "mtbf=21600,mttr=300,straggler=0.1,slow=0.5,launchfail=0.05,retries=4,seed=7"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, ServerMTBF: 21600, ServerMTTR: 300, StragglerFrac: 0.1,
		SlowFactor: 0.5, LaunchFailProb: 0.05, MaxLaunchRetries: 4}
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
	if empty, err := ParsePlan("  "); err != nil || empty.Enabled() {
		t.Fatalf("blank spec: got %+v, %v", empty, err)
	}
	for _, s := range []string{"bogus=1", "mtbf", "mtbf=abc", "seed=1.5", "mtbf=-2"} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("spec %q: want error", s)
		}
	}
}

func TestScheduleDeterministicAndWellFormed(t *testing.T) {
	p := Plan{Seed: 3, ServerMTBF: 7200, ServerMTTR: 600}
	const servers, horizon = 16, 6 * 86400
	topo := fakeTopo{servers: servers}
	a, _ := FullSchedule(p, Hysteresis{}, topo, horizon)
	b, _ := FullSchedule(p, Hysteresis{}, topo, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("crash-enabled plan produced an empty schedule")
	}
	if len(a)%2 != 0 {
		t.Fatalf("schedule has %d events, want crash/recover pairs", len(a))
	}
	// Sorted, and per-server strictly alternating crash -> recover with
	// non-overlapping downtime.
	down := make(map[int]bool)
	last := -1.0
	for i, ev := range a {
		if ev.T < last {
			t.Fatalf("event %d out of order: t=%g after t=%g", i, ev.T, last)
		}
		last = ev.T
		if ev.Recover {
			if !down[ev.Server] {
				t.Fatalf("event %d: recovery of healthy server %d", i, ev.Server)
			}
			down[ev.Server] = false
		} else {
			if down[ev.Server] {
				t.Fatalf("event %d: crash of already-crashed server %d", i, ev.Server)
			}
			down[ev.Server] = true
		}
	}
	for sid, d := range down {
		if d {
			t.Errorf("server %d never recovers", sid)
		}
	}
	// Different seeds must diverge.
	if c, _ := FullSchedule(Plan{Seed: 4, ServerMTBF: 7200, ServerMTTR: 600}, Hysteresis{}, topo, horizon); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	// Disabled / degenerate inputs.
	if s, _ := FullSchedule(Plan{}, Hysteresis{}, topo, horizon); s != nil {
		t.Errorf("no-crash plan produced %d events", len(s))
	}
	if s, _ := FullSchedule(p, Hysteresis{}, fakeTopo{}, horizon); s != nil {
		t.Errorf("zero servers produced %d events", len(s))
	}
}

func TestSlowFactorForHashStability(t *testing.T) {
	p := &Plan{Seed: 11, StragglerFrac: 0.25, SlowFactor: 0.4}
	slowed := 0
	const n = 10000
	for id := 0; id < n; id++ {
		f := p.SlowFactorFor(id)
		if f != 1 && f != 0.4 {
			t.Fatalf("job %d: factor %g is neither 1 nor SlowFactor", id, f)
		}
		if f != p.SlowFactorFor(id) {
			t.Fatalf("job %d: factor not stable across calls", id)
		}
		if f == 0.4 {
			slowed++
		}
	}
	frac := float64(slowed) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("straggler fraction %.3f far from configured 0.25", frac)
	}
	var nilPlan *Plan
	if nilPlan.SlowFactorFor(1) != 1 {
		t.Error("nil plan slows jobs down")
	}
}

func TestInjectorDraws(t *testing.T) {
	if NewInjector(nil) != nil {
		t.Error("nil plan yields a live injector")
	}
	if NewInjector(&Plan{ServerMTBF: 3600}) != nil {
		t.Error("crash-only plan yields a live injector")
	}
	inj := NewInjector(&Plan{Seed: 9, LaunchFailProb: 0.5})
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if inj.LaunchFails() {
			fails++
		}
	}
	if fails < n/4 || fails > 3*n/4 {
		t.Errorf("launch failures: %d of %d draws, want roughly half", fails, n)
	}
	var nilInj *Injector
	if nilInj.LaunchFails() {
		t.Error("nil injector fails launches")
	}
	if nilInj.MaxRetries() != 5 {
		t.Errorf("nil injector MaxRetries = %d, want default 5", nilInj.MaxRetries())
	}
}

// A setting the prototype cannot honour is a named error, not a silent
// no-op: the wire-layer keys went with the wire layer.
func TestParsePlanRejectsRemovedRPCKeys(t *testing.T) {
	for _, spec := range []string{"rpcerr=0.02", "mtbf=3600,rpcdelay=0.01"} {
		_, err := ParsePlan(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown spec key") ||
			!strings.Contains(err.Error(), "launchfail, retries, seed)") {
			t.Errorf("ParsePlan(%q) = %v, want the unknown-key error with the valid list", spec, err)
		}
	}
}

// NaN passes every range comparison, an infinite repair time never repairs,
// and a NaN one has no place on an ordered timeline: each non-finite float
// field is rejected, by its field name, from the spec syntax and from a
// hand-built plan alike.
func TestNonFiniteFieldsRejectedByName(t *testing.T) {
	for _, c := range []struct {
		spec  string
		field string
	}{
		{"mtbf=nan", "ServerMTBF"},
		{"mtbf=3600,mttr=inf", "ServerMTTR"},
		{"mtbf=3600,mttr=nan", "ServerMTTR"},
		{"mtbf=-inf", "ServerMTBF"},
		{"rackout=NaN", "RackOutMTBF"},
		{"rackout=3600,rackmttr=+Inf", "RackMTTR"},
		{"zoneout=inf", "ZoneOutMTBF"},
		{"zoneout=3600,zonemttr=nan", "ZoneMTTR"},
		{"straggler=nan", "StragglerFrac"},
		{"straggler=0.1,slow=nan", "SlowFactor"},
		{"launchfail=nan", "LaunchFailProb"},
	} {
		p, err := ParsePlan(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("ParsePlan(%q) = %+v, %v; want a not-finite error naming %s", c.spec, p, err, c.field)
		}
	}
	nan := math.NaN()
	for _, p := range []Plan{
		{ServerMTBF: nan}, {ServerMTBF: 1, ServerMTTR: math.Inf(1)}, {RackMTTR: nan},
		{ZoneOutMTBF: math.Inf(-1)}, {StragglerFrac: nan}, {SlowFactor: nan}, {LaunchFailProb: nan},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %+v: want error, got nil", p)
		}
	}
}

// The engine bounds the schedule by its MaxTime, and draws every stream from
// one re-keyed generator. Both must be invisible: a re-keyed generator draws
// what a fresh one does, whatever was drawn before.
func TestRenewalReseededEqualsFreshSource(t *testing.T) {
	var shared rand.PCG
	for i := 0; i < 200; i++ {
		key := subSeed(99, i)
		mtbf, mttr := 500+float64(i)*37, 20+float64(i%7)*90
		got := renewal(nil, &shared, key, mtbf, mttr, 50000)
		want := renewal(nil, new(rand.PCG), key, mtbf, mttr, 50000)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d: re-keyed generator drew %v, fresh one %v", i, got, want)
		}
	}
}

// The order contract of every schedule: time, then server, then a crash
// before a recovery — ties on each key included (a rack outage crashes its
// members at one instant).
func TestSortEventsOrderContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	evs := make([]Event, 2000)
	for i := range evs {
		evs[i] = Event{T: float64(rng.IntN(40)), Server: rng.IntN(6), Recover: rng.IntN(2) == 1}
	}
	sortEvents(evs)
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.T > b.T || (a.T == b.T && (a.Server > b.Server || (a.Server == b.Server && a.Recover && !b.Recover))) {
			t.Fatalf("events %d, %d out of order: %+v before %+v", i-1, i, a, b)
		}
	}
}
