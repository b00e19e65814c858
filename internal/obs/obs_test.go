package obs

import (
	"bytes"
	"strings"
	"testing"
)

// The serialization is part of the determinism contract: a fixed top-level
// field order and sorted payload keys mean the JSON form is a pure function
// of the event value. Pin the exact bytes.
func TestEventMarshalIsCanonical(t *testing.T) {
	ev := JobEv(86700, KindJobPreempt, 4217).WithCause("reclaim").WithF(Fields{
		"workers":   4,
		"held_gpus": 16,
	})
	b, err := ev.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":86700,"kind":"job.preempt","job":4217,"cause":"reclaim","f":{"held_gpus":16,"workers":4}}`
	if string(b) != want {
		t.Errorf("canonical form changed:\n got %s\nwant %s", b, want)
	}

	// Job 0 is a real job ID (IDs start at 0) and must not be dropped.
	b0, err := JobEv(0, KindJobSubmit, 0).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"t":0,"kind":"job.submit","job":0}`; string(b0) != want {
		t.Errorf("job 0 form: got %s want %s", b0, want)
	}

	// Non-job events omit the job field entirely.
	bn, err := Ev(60, KindSchedEpoch).WithF(Fields{"epoch": 1}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"t":60,"kind":"sched.epoch","f":{"epoch":1}}`; string(bn) != want {
		t.Errorf("non-job form: got %s want %s", bn, want)
	}
}

func TestEventRoundTrip(t *testing.T) {
	cases := []Event{
		JobEv(86700, KindJobPreempt, 4217).WithCause("reclaim").WithF(Fields{"workers": 4}),
		JobEv(0, KindJobSubmit, 0),
		Ev(3600, KindOrchLoan).WithF(Fields{"count": 2}),
		Ev(0, KindSchedEpoch),
	}
	for _, in := range cases {
		b, err := in.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", in.Kind, err)
		}
		var out Event
		if err := out.UnmarshalJSON(b); err != nil {
			t.Fatalf("%s: unmarshal: %v", in.Kind, err)
		}
		if out.T != in.T || out.Kind != in.Kind || out.Job != in.Job || out.Cause != in.Cause {
			t.Errorf("%s: round trip changed header: %+v -> %+v", in.Kind, in, out)
		}
		if len(out.F) != len(in.F) {
			t.Errorf("%s: payload size changed: %v -> %v", in.Kind, in.F, out.F)
		}
	}
}

func TestEventString(t *testing.T) {
	ev := JobEv(86700, KindJobPreempt, 4217).WithCause("reclaim").WithF(Fields{
		"workers": 4, "held_gpus": 16,
	})
	s := ev.String()
	for _, want := range []string{"t=86700", "job.preempt", "job=4217", "cause=reclaim", "held_gpus=16 workers=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(4)
	if got := r.Tail(10); got != nil {
		t.Errorf("empty ring Tail = %v, want nil", got)
	}
	for i := 0; i < 6; i++ { // wraps: ring keeps events 2..5
		r.Record(Ev(float64(i), KindSchedEpoch))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	tail := r.Tail(3)
	if len(tail) != 3 {
		t.Fatalf("Tail(3) returned %d events", len(tail))
	}
	for i, want := range []float64{3, 4, 5} {
		if tail[i].T != want {
			t.Errorf("tail[%d].T = %g, want %g (chronological order)", i, tail[i].T, want)
		}
	}
	// n exceeding the held count clamps.
	if got := len(r.Tail(100)); got != 4 {
		t.Errorf("Tail(100) returned %d events, want 4", got)
	}

	var nilRing *Ring
	if nilRing.Tail(5) != nil || nilRing.Len() != 0 {
		t.Errorf("nil ring must report empty")
	}
}

// A nil recorder is the disabled state: every method must be a no-op, not a
// nil dereference — call sites rely on this for the zero-overhead path.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Errorf("nil recorder reports enabled")
	}
	r.Emit(Ev(0, KindSchedEpoch))
}

func TestRecorderFanOutAndJSONL(t *testing.T) {
	var buf bytes.Buffer
	ring := NewRing(8)
	jw := NewJSONLWriter(&buf)
	rec := NewRecorder(jw, ring)
	rec.Emit(JobEv(1, KindJobQueue, 7).WithCause("arrival"))
	rec.Emit(JobEv(2, KindJobStart, 7).WithCause("first"))
	if jw.Err() != nil {
		t.Fatal(jw.Err())
	}
	if ring.Len() != 2 {
		t.Errorf("ring saw %d events, want 2", ring.Len())
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != KindJobQueue || events[1].Kind != KindJobStart {
		t.Errorf("JSONL round trip: %+v", events)
	}
}
