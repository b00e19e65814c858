package obs

// Recorder fans events out to its sinks. The disabled state is a nil
// *Recorder: every method is nil-safe, so call sites pay one nil check and
// nothing else when observability is off — the same discipline as the
// invariant auditor's Audit flag. Call sites that must build a non-trivial
// payload should gate the construction on Enabled() so the disabled path
// allocates nothing.
//
// A Recorder belongs to one run, and a run — simulator or prototype — is
// one goroutine, so Emit takes no lock. It keeps no counts: each count a run
// reports is the number of events of one kind in its stream (CountByKind).
type Recorder struct {
	sinks []Sink
}

// NewRecorder returns a recorder fanning out to the given sinks.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks}
}

// Enabled reports whether the recorder is live. The nil receiver is the
// disabled fast path.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event into every sink. Nil-safe.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	for _, s := range r.sinks {
		s.Record(ev)
	}
}
