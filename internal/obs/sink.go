package obs

import (
	"io"
)

// Sink consumes recorded events. Sinks need not be safe for concurrent use:
// a Recorder is driven by the one goroutine of its run.
type Sink interface {
	Record(Event)
}

// Ring is a bounded in-memory event buffer keeping the most recent events.
// It is the always-cheap sink that lets an invariant violation report flush
// the lead-up context ("what happened just before the state went wrong")
// without the cost of persisting the full stream.
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing returns a ring holding the last n events (n <= 0 defaults to 64).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 64
	}
	return &Ring{buf: make([]Event, n)}
}

// Record implements Sink.
func (r *Ring) Record(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Tail returns up to n of the most recent events in chronological order.
// A nil ring returns nil, so callers can flush context unconditionally.
func (r *Ring) Tail(n int) []Event {
	have := r.Len()
	if have == 0 {
		return nil
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Event, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// JSONLWriter streams events as JSON Lines: one deterministic JSON object
// per event, newline-terminated. The first write error is latched and
// subsequent events are dropped; check Err after the run.
type JSONLWriter struct {
	w   io.Writer
	err error
}

// NewJSONLWriter returns a JSONL sink over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// Record implements Sink.
func (s *JSONLWriter) Record(ev Event) {
	if s.err != nil {
		return
	}
	b, err := ev.MarshalJSON()
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
	}
}

// Err reports the first write or encoding error, if any.
func (s *JSONLWriter) Err() error { return s.err }
