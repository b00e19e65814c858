// Package obs is the observability layer of the reproduction: a structured
// event recorder with a zero-overhead-when-disabled fast path (the same
// nil-check discipline as the invariant auditor's Audit flag), typed events
// for every decision the system takes, pluggable sinks (bounded ring, JSONL
// writer, human formatter) and the queries that fold a recorded stream back
// into timelines and counts.
//
// PR 1's invariant auditor proves THAT the state stayed legal; this package
// records HOW it got there: why a job was preempted at t=86700, which
// candidate servers the reclaiming knapsack enumerated, how many GPUs the
// orchestrator loaned and why not more. Events carry simulated time only —
// never wall clock — so the event stream of a deterministic simulation is
// byte-identical across runs and across processes, extending the repo's
// existing determinism guarantees to the telemetry itself.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind is the event type tag. Kinds are dot-namespaced by subsystem so an
// event stream can be grepped per layer (job.*, sched.*, orch.*, ...).
type Kind string

// Event kinds. Job lifecycle events carry the job ID and a cause; decision
// events carry their inputs and outputs in F.
const (
	// Job lifecycle (engine + sim.State; the testbed shares the State
	// methods, so both substrates emit the same lifecycle stream).
	KindJobSubmit    Kind = "job.submit"     // trace arrival
	KindJobQueue     Kind = "job.queue"      // inserted into the pending queue (cause: arrival | reclaim | ...)
	KindJobStart     Kind = "job.start"      // gang-placed and running (cause: first | resume)
	KindJobPreempt   Kind = "job.preempt"    // stopped and re-queued (cause names the decider)
	KindJobScaleUp   Kind = "job.scale_up"   // flexible workers added
	KindJobScaleDown Kind = "job.scale_down" // flexible workers removed
	KindJobFinish    Kind = "job.finish"     // completed

	// Scheduler epoch summary (queue depth, free GPUs, decision deltas).
	KindSchedEpoch Kind = "sched.epoch"
	// Lyra phase-2 elastic allocation (MCKP capacity and chosen targets).
	KindSchedPhase2 Kind = "sched.phase2"

	// Orchestrator decisions (§4): the per-epoch loan/reclaim instruction
	// and each executed capacity movement.
	KindOrchEpoch   Kind = "orch.epoch"
	KindOrchLoan    Kind = "orch.loan"
	KindOrchReturn  Kind = "orch.return"
	KindOrchReclaim Kind = "orch.reclaim"

	// Reclaim heuristic trace: candidate set, phase-1/phase-2 picks with
	// their knapsack scores, and the final plan.
	KindReclaimPlan Kind = "reclaim.plan"

	// Testbed container transitions (YARN-lite resource manager).
	KindContainerLaunch  Kind = "container.launch"
	KindContainerReady   Kind = "container.ready"
	KindContainerKill    Kind = "container.kill"
	KindContainerRelease Kind = "container.release"

	// Fault injection (internal/fault): server crash/recovery, a
	// container-launch failure, and the restart a fault forced on a job
	// (emitted alongside the job.preempt/job.queue lifecycle pair so
	// timelines say *why* the job bounced).
	KindFaultCrash   Kind = "fault.crash"
	KindFaultRecover Kind = "fault.recover"
	KindFaultLaunch  Kind = "fault.launch"
	KindJobRestart   Kind = "job.restart"

	// Correlated failure domains + degraded-mode policies: a whole rack or
	// zone going down/up (cause: rack-down | rack-up | zone-down |
	// zone-up), a crash-preempted job held back by restart backoff (cause:
	// hold | release), a repeat-crashing server's quarantine exit delayed
	// by hysteresis (cause: hysteresis), and the orchestrator raising its
	// loan target to cover a training-capacity crater (cause:
	// capacity-loss).
	KindFaultDomain          Kind = "fault.domain"
	KindJobBackoff           Kind = "job.backoff"
	KindFaultHolddown        Kind = "fault.holddown"
	KindOrchEmergencyReclaim Kind = "orch.emergency-reclaim"

	// Sharded-topology arbitration (internal/arbiter): a job routed to its
	// training shard (cause: route). Loan grants reuse KindOrchLoan with
	// cause loan-grant and, like every per-borrower orchestrator event, a
	// shard field. Emitted only in genuinely multi-shard runs; a 1+1
	// topology reproduces the unsharded stream byte-for-byte.
	KindArbRoute Kind = "arb.route"
)

// Fields carries an event's kind-specific payload. Keys are emitted in
// sorted order, so two identical payloads always serialize identically.
type Fields map[string]any

// Event is one recorded occurrence. T is simulated seconds — wall-clock
// time never enters an event, which is what keeps streams byte-identical
// across runs. Job is the subject job ID, or -1 for events not about a
// single job (epoch summaries, orchestrator moves, fault markers).
type Event struct {
	T     float64
	Kind  Kind
	Job   int
	Cause string
	F     Fields
}

// Ev returns a non-job event (Job = -1) at simulated time t.
func Ev(t float64, kind Kind) Event { return Event{T: t, Kind: kind, Job: -1} }

// JobEv returns an event about one job.
func JobEv(t float64, kind Kind, job int) Event { return Event{T: t, Kind: kind, Job: job} }

// WithCause returns the event with its cause set.
func (e Event) WithCause(cause string) Event { e.Cause = cause; return e }

// WithF returns the event with its payload set.
func (e Event) WithF(f Fields) Event { e.F = f; return e }

// MarshalJSON encodes the event as a single flat JSON object with a fixed
// field order (t, kind, job, cause, f) and sorted payload keys: the
// serialization is a pure function of the event value, so deterministic
// simulations produce byte-identical JSONL streams.
func (e Event) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"t":`)
	t, err := json.Marshal(e.T)
	if err != nil {
		return nil, err
	}
	b.Write(t)
	b.WriteString(`,"kind":`)
	k, _ := json.Marshal(string(e.Kind))
	b.Write(k)
	if e.Job >= 0 {
		fmt.Fprintf(&b, `,"job":%d`, e.Job)
	}
	if e.Cause != "" {
		c, _ := json.Marshal(e.Cause)
		b.WriteString(`,"cause":`)
		b.Write(c)
	}
	if len(e.F) > 0 {
		b.WriteString(`,"f":{`)
		for i, key := range sortedKeys(e.F) {
			if i > 0 {
				b.WriteByte(',')
			}
			kk, _ := json.Marshal(key)
			b.Write(kk)
			b.WriteByte(':')
			v, err := json.Marshal(e.F[key])
			if err != nil {
				return nil, fmt.Errorf("obs: field %q of %s: %w", key, e.Kind, err)
			}
			b.Write(v)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes an event produced by MarshalJSON. Absent job fields
// decode to -1; payload numbers decode as float64 (encoding/json's default
// for any).
func (e *Event) UnmarshalJSON(b []byte) error {
	var raw struct {
		T     float64 `json:"t"`
		Kind  Kind    `json:"kind"`
		Job   *int    `json:"job"`
		Cause string  `json:"cause"`
		F     Fields  `json:"f"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	e.T, e.Kind, e.Cause, e.F = raw.T, raw.Kind, raw.Cause, raw.F
	e.Job = -1
	if raw.Job != nil {
		e.Job = *raw.Job
	}
	return nil
}

// String renders the event on one human-readable line:
//
//	t=86700 job.preempt job=4217 cause=reclaim held_gpus=16 workers=4
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8g %-16s", e.T, e.Kind)
	if e.Job >= 0 {
		fmt.Fprintf(&b, " job=%d", e.Job)
	}
	if e.Cause != "" {
		fmt.Fprintf(&b, " cause=%s", e.Cause)
	}
	for _, k := range sortedKeys(e.F) {
		fmt.Fprintf(&b, " %s=%v", k, e.F[k])
	}
	return b.String()
}

func sortedKeys(f Fields) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
