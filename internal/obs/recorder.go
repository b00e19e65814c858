package obs

// Recorder fans events out to its sinks and owns the counter registry. The
// disabled state is a nil *Recorder: every method is nil-safe, so call
// sites pay one nil check and nothing else when observability is off —
// the same discipline as the invariant auditor's Audit flag. Call sites
// that must build a non-trivial payload should gate the construction on
// Enabled() so the disabled path allocates nothing.
//
// A Recorder belongs to one run, and a run — simulator or prototype — is
// one goroutine, so Emit takes no lock; the registry keeps its own because
// the experiment runner's workers share one.
type Recorder struct {
	sinks []Sink
	reg   *Registry
}

// NewRecorder returns a recorder fanning out to the given sinks, with a
// fresh counter registry attached.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks, reg: NewRegistry()}
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

// Registry returns the attached counter registry (nil when disabled; the
// Registry methods are themselves nil-safe).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Add increments a registry counter. Nil-safe.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.reg.Add(name, delta)
}

// Observe records a histogram value. Nil-safe.
func (r *Recorder) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.reg.Observe(name, v)
}

// EmitCounters emits a KindCounters event carrying the current registry
// snapshot — the periodic sample taken on the simulator's MetricsInterval.
// Nil-safe.
func (r *Recorder) EmitCounters(t float64) {
	if r == nil {
		return
	}
	r.Emit(Ev(t, KindCounters).WithF(r.reg.SnapshotFields()))
}
