// Package fault is the deterministic fault-injection engine of the
// reproduction. Lyra's whole design assumes borrowed capacity is unreliable
// — loaned servers are reclaimed on short notice and preempted jobs restart
// from checkpoints (§4, §6) — yet a perfectly reliable substrate never
// exercises any of the recovery machinery. This package supplies the missing
// churn: server crashes with timed recoveries, per-job straggler slowdowns,
// and container launch failures in the testbed.
//
// Everything is described by a Plan, a pure-data value with its own random
// seed. Two properties follow and are load-bearing for the rest of the repo:
//
//   - Determinism: the crash/recovery schedule is pre-generated, each
//     server's, rack's and zone's stream drawn from a generator keyed on
//     (plan seed, stream ID) alone (FullSchedule), and straggler assignment
//     is a pure hash of (seed, job ID) — neither depends on execution order, so
//     a faulted simulation stays byte-identical across runs, processes and
//     runner pool widths, exactly like an un-faulted one.
//   - Memoizability: the Plan is part of lyra.Config, so internal/runner's
//     content-addressed keys extend over it automatically; two runs with
//     different fault plans never collide in the cache.
//
// The zero Plan (or one with only Seed set) disables every injection; the
// consumers' fast path is a nil/Enabled check and nothing else, the same
// discipline as the invariant auditor and the obs recorder.
package fault

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Plan fully describes one fault-injection configuration. All fields are
// plain data so the plan can be hashed into the experiment runner's
// content-addressed keys and round-tripped through JSON.
type Plan struct {
	// Seed seeds the dedicated fault rand stream. It is independent of the
	// scheme seed so the same workload can be replayed under different
	// fault draws (and vice versa).
	Seed int64

	// ServerMTBF is the per-server mean time between crashes in simulated
	// seconds (exponential inter-failure times, the standard reliability
	// model). 0 disables server crashes.
	ServerMTBF float64
	// ServerMTTR is the mean repair time in simulated seconds; a crashed
	// server rejoins its pool after an exponentially distributed downtime.
	// Defaults to 600 when crashes are enabled (Normalize makes the default
	// explicit, and String always renders the effective value).
	ServerMTTR float64

	// RackOutMTBF enables correlated rack outages: each rack of the cluster
	// topology draws an independent alternating renewal process with this
	// mean time between outages (simulated seconds), and an outage crashes
	// every server of the rack atomically. 0 disables rack outages. The
	// json tags keep the new domain fields out of runner cache keys for
	// plans written before they existed.
	RackOutMTBF float64 `json:",omitempty"`
	// RackMTTR is the mean rack-outage repair time. Defaults to 900 when
	// rack outages are enabled.
	RackMTTR float64 `json:",omitempty"`
	// ZoneOutMTBF enables correlated zone outages (a zone is a group of
	// racks): like RackOutMTBF, one renewal process per zone, the whole
	// zone crashing atomically. 0 disables zone outages.
	ZoneOutMTBF float64 `json:",omitempty"`
	// ZoneMTTR is the mean zone-outage repair time. Defaults to 1800 when
	// zone outages are enabled.
	ZoneMTTR float64 `json:",omitempty"`

	// StragglerFrac is the fraction of jobs degraded to SlowFactor of
	// their nominal throughput (per-job hash of Seed and job ID, so the
	// assignment is order-independent). 0 disables stragglers.
	StragglerFrac float64
	// SlowFactor is the throughput multiplier applied to straggler jobs,
	// in (0, 1]. Defaults to 0.5 when StragglerFrac is set.
	SlowFactor float64

	// LaunchFailProb is the probability that one container launch fails in
	// the testbed resource manager. Failed launches are retried with
	// capped exponential backoff; after MaxLaunchRetries consecutive
	// failures the job is requeued through the checkpoint-restart path.
	LaunchFailProb float64
	// MaxLaunchRetries bounds consecutive launch failures per job before
	// the terminal requeue. Defaults to 5 when LaunchFailProb is set.
	MaxLaunchRetries int
}

// Enabled reports whether the plan injects anything at all. It is nil-safe:
// consumers hold a *Plan and pay exactly this check on the disabled path.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.ServerMTBF > 0 || p.RackOutMTBF > 0 || p.ZoneOutMTBF > 0 ||
		p.StragglerFrac > 0 || p.LaunchFailProb > 0
}

// Normalize returns the plan with defaults applied to the dependent fields
// of every enabled injection: ServerMTTR 600 when server crashes are on,
// RackMTTR 900 / ZoneMTTR 1800 when the corresponding domain outages are
// on, SlowFactor 0.5 with stragglers, MaxLaunchRetries 5 with launch
// failures. It is idempotent, and every disabled plan — including one
// carrying a stray seed, retry bound or orphaned MTTR but no injection —
// normalizes to the zero Plan, so "no faults" has exactly one canonical
// form under the runner's content hashing and a leftover -fault-seed can
// never split the memoization cache.
func (p Plan) Normalize() Plan {
	if !p.Enabled() {
		return Plan{}
	}
	if p.ServerMTBF > 0 && p.ServerMTTR == 0 {
		p.ServerMTTR = 600
	}
	if p.RackOutMTBF > 0 && p.RackMTTR == 0 {
		p.RackMTTR = 900
	}
	if p.ZoneOutMTBF > 0 && p.ZoneMTTR == 0 {
		p.ZoneMTTR = 1800
	}
	if p.StragglerFrac > 0 && p.SlowFactor == 0 {
		p.SlowFactor = 0.5
	}
	if p.LaunchFailProb > 0 && p.MaxLaunchRetries == 0 {
		p.MaxLaunchRetries = 5
	}
	return p
}

// Validate reports the first out-of-domain field. It checks the raw fields
// — not the normalized form — so a negative rate is rejected even though
// Normalize would canonicalize such a disabled plan away; zero-valued
// dependent fields (SlowFactor, MaxLaunchRetries) are fine because
// Normalize fills their defaults. A non-finite value is rejected first and
// by name: NaN passes every range comparison below, an infinite MTTR would
// schedule recoveries that never come, and a NaN one would put events with
// no defined order on the timeline.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ServerMTBF", p.ServerMTBF}, {"ServerMTTR", p.ServerMTTR},
		{"RackOutMTBF", p.RackOutMTBF}, {"RackMTTR", p.RackMTTR},
		{"ZoneOutMTBF", p.ZoneOutMTBF}, {"ZoneMTTR", p.ZoneMTTR},
		{"StragglerFrac", p.StragglerFrac}, {"SlowFactor", p.SlowFactor},
		{"LaunchFailProb", p.LaunchFailProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: %s %v is not finite", f.name, f.v)
		}
	}
	switch {
	case p.ServerMTBF < 0:
		return fmt.Errorf("fault: ServerMTBF %v negative", p.ServerMTBF)
	case p.ServerMTTR < 0:
		return fmt.Errorf("fault: ServerMTTR %v negative", p.ServerMTTR)
	case p.RackOutMTBF < 0:
		return fmt.Errorf("fault: RackOutMTBF %v negative", p.RackOutMTBF)
	case p.RackMTTR < 0:
		return fmt.Errorf("fault: RackMTTR %v negative", p.RackMTTR)
	case p.ZoneOutMTBF < 0:
		return fmt.Errorf("fault: ZoneOutMTBF %v negative", p.ZoneOutMTBF)
	case p.ZoneMTTR < 0:
		return fmt.Errorf("fault: ZoneMTTR %v negative", p.ZoneMTTR)
	case p.StragglerFrac < 0 || p.StragglerFrac > 1:
		return fmt.Errorf("fault: StragglerFrac %v outside [0, 1]", p.StragglerFrac)
	case p.SlowFactor < 0 || p.SlowFactor > 1:
		return fmt.Errorf("fault: SlowFactor %v outside [0, 1] (0 = default)", p.SlowFactor)
	case p.LaunchFailProb < 0 || p.LaunchFailProb >= 1:
		return fmt.Errorf("fault: LaunchFailProb %v outside [0, 1)", p.LaunchFailProb)
	case p.MaxLaunchRetries < 0:
		return fmt.Errorf("fault: MaxLaunchRetries %d negative", p.MaxLaunchRetries)
	}
	return nil
}

// ParsePlan decodes the CLI fault spec: a comma-separated key=value list,
// e.g. "mtbf=21600,mttr=600,straggler=0.1,slow=0.5,launchfail=0.05,
// seed=7". Unknown keys are rejected with the valid list; the result is
// normalized and validated.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("fault: malformed spec entry %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		f, ferr := strconv.ParseFloat(val, 64)
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("fault: seed %q: %v", val, err)
			}
			p.Seed = n
			continue
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("fault: retries %q: %v", val, err)
			}
			p.MaxLaunchRetries = n
			continue
		}
		if ferr != nil {
			return p, fmt.Errorf("fault: %s value %q: %v", key, val, ferr)
		}
		switch key {
		case "mtbf":
			p.ServerMTBF = f
		case "mttr":
			p.ServerMTTR = f
		case "rackout":
			p.RackOutMTBF = f
		case "rackmttr":
			p.RackMTTR = f
		case "zoneout":
			p.ZoneOutMTBF = f
		case "zonemttr":
			p.ZoneMTTR = f
		case "straggler":
			p.StragglerFrac = f
		case "slow":
			p.SlowFactor = f
		case "launchfail":
			p.LaunchFailProb = f
		default:
			return p, fmt.Errorf("fault: unknown spec key %q (valid: mtbf, mttr, rackout, rackmttr, zoneout, zonemttr, straggler, slow, launchfail, retries, seed)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p.Normalize(), nil
}

// String renders the plan in ParsePlan's spec syntax (enabled knobs only).
func (p Plan) String() string {
	n := p.Normalize()
	var parts []string
	add := func(k string, v float64) { parts = append(parts, fmt.Sprintf("%s=%g", k, v)) }
	if n.ServerMTBF > 0 {
		add("mtbf", n.ServerMTBF)
		add("mttr", n.ServerMTTR)
	}
	if n.RackOutMTBF > 0 {
		add("rackout", n.RackOutMTBF)
		add("rackmttr", n.RackMTTR)
	}
	if n.ZoneOutMTBF > 0 {
		add("zoneout", n.ZoneOutMTBF)
		add("zonemttr", n.ZoneMTTR)
	}
	if n.StragglerFrac > 0 {
		add("straggler", n.StragglerFrac)
		add("slow", n.SlowFactor)
	}
	if n.LaunchFailProb > 0 {
		add("launchfail", n.LaunchFailProb)
		parts = append(parts, fmt.Sprintf("retries=%d", n.MaxLaunchRetries))
	}
	if len(parts) == 0 {
		return "none"
	}
	parts = append(parts, fmt.Sprintf("seed=%d", n.Seed))
	return strings.Join(parts, ",")
}

// Event is one scheduled server fault: a crash at T, or the matching
// recovery (Recover true) that returns the server to service.
type Event struct {
	T       float64
	Server  int
	Recover bool
}

// streamKeyLo is the fixed low word of every stream's PCG key; the high word,
// subSeed(salted plan seed, stream ID), carries the entropy, mixed by
// splitmix64 so adjacent IDs start far apart.
const streamKeyLo = 0x6c7972616661756c // "lyrafaul"

// renewal draws one alternating renewal process — exponential up-times with
// mean mtbf, exponential down-times with mean mttr floored at one second —
// and returns its downtime intervals [start, end) with start < horizon. The
// draw order (one up-time, then alternating down-time/up-time) is the
// schedule contract: FullSchedule's streams are defined by it, and a
// shorter horizon yields a prefix of the same stream. pcg is the one
// generator of the caller's whole schedule, re-keyed here for this stream:
// two words are its whole state, so the draws are a fresh generator's.
func renewal(pcg *randv2.PCG, key int64, mtbf, mttr float64, horizon int64) [][2]float64 {
	if mtbf <= 0 {
		return nil
	}
	pcg.Seed(uint64(key), streamKeyLo)
	rng := randv2.New(pcg)
	var out [][2]float64
	t := rng.ExpFloat64() * mtbf
	for t < float64(horizon) {
		down := rng.ExpFloat64() * mttr
		if down < 1 {
			down = 1
		}
		out = append(out, [2]float64{t, t + down})
		t += down + rng.ExpFloat64()*mtbf
	}
	return out
}

func sortEvents(out []Event) {
	slices.SortFunc(out, func(a, b Event) int {
		switch {
		case a.T != b.T:
			return cmp.Compare(a.T, b.T)
		case a.Server != b.Server:
			return cmp.Compare(a.Server, b.Server)
		case a.Recover == b.Recover:
			return 0
		case b.Recover:
			return -1
		}
		return 1
	})
}

// DomainEvent is one scheduled correlated outage: a whole rack (or zone,
// when Zone is true) going down at T, or the matching recovery. Domain
// events are markers for observability — the member servers' crashes and
// recoveries flow through the ordinary per-server Event timeline, merged by
// FullSchedule.
type DomainEvent struct {
	T       float64
	Zone    bool
	Domain  int
	Recover bool
}

// Topology is the failure-domain view FullSchedule needs; *cluster.Cluster
// satisfies it. Keeping it an interface leaves this package dependency-free.
type Topology interface {
	NumServers() int
	NumRacks() int
	NumZones() int
	RackServers(r int) []int
	ZoneServers(z int) []int
}

// Seed salts decorrelating the per-rack and per-zone outage streams from
// the per-server crash streams sharing the same plan seed.
const (
	rackSeedSalt = 0x7261636b // "rack"
	zoneSeedSalt = 0x7a6f6e65 // "zone"
)

// FullSchedule pre-generates the complete fault timeline for a plan over a
// topology: independent per-server crashes plus correlated rack and zone
// outages. Each server, rack and zone draws an alternating renewal process
// (exponential up-times with mean MTBF, exponential down-times with mean
// MTTR floored at one second, so a crash and its recovery never coincide)
// from a stream keyed on the plan seed and the stream's ID. Generating the
// whole timeline up front — rather than drawing lazily during execution —
// makes it independent of event-processing order: the same plan yields the
// same timeline on either substrate, at any pool width or interleaving.
//
// Every domain outage crashes its member servers atomically (one crash
// event per server at the outage instant) and holds them down until the
// outage ends; overlapping downtime from any source — an individual crash
// inside a rack outage, a rack outage inside a zone outage — is merged per
// server into a single crash/recovery pair, so a server never crashes while
// already down and always recovers exactly once per downtime. Every crash
// before the horizon carries its recovery even when that lands past the
// horizon (a crashed server must always come back, or drain-phase jobs
// could starve).
//
// The server events are sorted by time, then server, crash before recovery
// at equal times; the domain events are sorted by time, racks before zones,
// crash before recovery, and exist purely so the substrates can emit
// fault.domain markers.
func FullSchedule(p Plan, topo Topology, horizon int64) ([]Event, []DomainEvent) {
	p = p.Normalize()
	numServers := topo.NumServers()
	if numServers <= 0 || horizon <= 0 {
		return nil, nil
	}
	var pcg randv2.PCG
	down := make([][][2]float64, numServers)
	for sid := 0; sid < numServers; sid++ {
		down[sid] = renewal(&pcg, subSeed(p.Seed, sid), p.ServerMTBF, p.ServerMTTR, horizon)
	}
	var domains []DomainEvent
	addDomain := func(zone bool, d int, members []int, ivs [][2]float64) {
		for _, iv := range ivs {
			domains = append(domains,
				DomainEvent{T: iv[0], Zone: zone, Domain: d},
				DomainEvent{T: iv[1], Zone: zone, Domain: d, Recover: true})
			for _, sid := range members {
				down[sid] = append(down[sid], iv)
			}
		}
	}
	for r := 0; r < topo.NumRacks(); r++ {
		addDomain(false, r, topo.RackServers(r),
			renewal(&pcg, subSeed(p.Seed^rackSeedSalt, r), p.RackOutMTBF, p.RackMTTR, horizon))
	}
	for z := 0; z < topo.NumZones(); z++ {
		addDomain(true, z, topo.ZoneServers(z),
			renewal(&pcg, subSeed(p.Seed^zoneSeedSalt, z), p.ZoneOutMTBF, p.ZoneMTTR, horizon))
	}
	var out []Event
	for sid := 0; sid < numServers; sid++ {
		for _, iv := range mergeIntervals(down[sid]) {
			out = append(out, Event{T: iv[0], Server: sid}, Event{T: iv[1], Server: sid, Recover: true})
		}
	}
	sortEvents(out)
	sort.Slice(domains, func(i, j int) bool {
		a, b := domains[i], domains[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Zone != b.Zone {
			return !a.Zone
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return !a.Recover && b.Recover
	})
	return out, domains
}

// mergeIntervals unions possibly-overlapping downtime intervals in place:
// sorted by start, any interval starting at or before the running end
// extends the current downtime.
func mergeIntervals(ivs [][2]float64) [][2]float64 {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i][0] != ivs[j][0] {
			return ivs[i][0] < ivs[j][0]
		}
		return ivs[i][1] < ivs[j][1]
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv[0] <= last[1] {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subSeed mixes the plan seed with a stream index through splitmix64, so
// per-server (and per-job) streams are decorrelated even for adjacent IDs.
func subSeed(seed int64, idx int) int64 {
	z := uint64(seed) + uint64(idx)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// hash01 maps a (seed, index) pair to a uniform float in [0, 1) without any
// stream state, so per-job draws are independent of evaluation order.
func hash01(seed int64, idx int) float64 {
	return float64(uint64(subSeed(seed, idx))>>11) / (1 << 53)
}

// SlowFactorFor returns the throughput multiplier fault injection assigns
// to job id: p.SlowFactor for the StragglerFrac of jobs selected by the
// (seed, id) hash, 1 for everything else. Nil-safe.
func (p *Plan) SlowFactorFor(id int) float64 {
	if p == nil || p.StragglerFrac <= 0 {
		return 1
	}
	n := p.Normalize()
	if hash01(n.Seed^0x5bf03635, id) < n.StragglerFrac {
		return n.SlowFactor
	}
	return 1
}

// ErrInjectedLaunch is the error an injected container-launch failure
// returns from ResourceManager.Launch.
var ErrInjectedLaunch = errors.New("fault: injected launch failure")

// Injector draws launch-failure decisions from the plan's seeded stream, one
// per launch the prototype's resource manager attempts, in tick-loop order.
// A nil Injector injects nothing.
type Injector struct {
	rng  *rand.Rand
	plan Plan
}

// NewInjector returns an injector for the plan, or nil when the plan
// injects no launch failures.
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	n := p.Normalize()
	if n.LaunchFailProb <= 0 {
		return nil
	}
	return &Injector{rng: rand.New(rand.NewSource(subSeed(n.Seed, 0x1a47))), plan: n}
}

// LaunchFails draws one container-launch failure decision. Nil-safe.
func (in *Injector) LaunchFails() bool {
	if in == nil || in.plan.LaunchFailProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.plan.LaunchFailProb
}

// MaxRetries exposes the normalized launch-retry bound. Nil-safe (returns
// the default when no injector is installed — callers still bound retries
// of real failures).
func (in *Injector) MaxRetries() int {
	if in == nil || in.plan.MaxLaunchRetries == 0 {
		return 5
	}
	return in.plan.MaxLaunchRetries
}
