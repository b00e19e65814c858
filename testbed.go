package lyra

import (
	"fmt"

	"lyra/internal/testbed"
)

// TestbedOptions are the knobs only the prototype runtime has; everything
// about the scheme itself is the Config.
type TestbedOptions struct {
	// UtilCompress squeezes the diurnal inference-utilization curve in time
	// so that a half-day testbed run still exercises several loan/reclaim
	// cycles (default 4: one "day" of traffic passes every six hours; 1 is
	// the simulator's timebase). The paper's testbed scales the inference
	// trace down to the testbed capacity the same way.
	UtilCompress int
}

// Normalize resolves the zero value to the default. RunTestbed applies it,
// and the runner keys testbed runs through it, so options that run the same
// prototype key the same.
func (o TestbedOptions) Normalize() TestbedOptions {
	if o.UtilCompress == 0 {
		o.UtilCompress = 4
	}
	return o
}

// NormalizeTestbed is Normalize at the prototype's scale: a zero
// SchedInterval / OrchInterval defaults to 10 s / 60 s — the same ratio as
// production (the scheduler runs much more often, §3) at the scale of a
// few-hour trace. RunTestbed applies it; the runner keys testbed runs
// through it.
func (c Config) NormalizeTestbed() Config {
	if !c.DefaultsApplied {
		if c.SchedInterval == 0 {
			c.SchedInterval = 10
		}
		if c.OrchInterval == 0 {
			c.OrchInterval = 60
		}
	}
	return c.Normalize()
}

// RunTestbed runs tr under cfg on the prototype runtime (internal/testbed,
// §7.5): worker containers with launch latency, per-job elastic controllers
// and the orchestrator's pool moves (§6's whitelist update), stepped tick
// by tick on simulated time. The scheme is assembled exactly as Run
// assembles it — same registries, loan protocol and inference side — so one
// Config describes the same scheduler and orchestrator on either substrate;
// only the substrate differs. Like Run it is a pure function of its
// arguments: same Config and trace, same result and same event bytes. The
// Report is Run's, built by the same code over the same state counters, with
// Raw.Prototype set and the fields only the simulator samples left zero (see
// Report). Invariant violations come back as *obs.ViolationError, as from
// Run.
//
// Faults are the simulator's too: the prototype replays the engine's fault
// timeline (rack and zone outages included) over its cluster through the
// same crash and recovery transitions, and reports lost capacity by the
// same accounting. The prototype is one training plus one inference pool,
// and its tick loop implements no engine-side degraded-mode policy: a
// Config asking for shards, RestartBackoff or QuarantineHysteresis is
// rejected with the field named rather than run without them.
func RunTestbed(cfg Config, tr *Trace, opt TestbedOptions) (rep *Report, err error) {
	cfg = cfg.NormalizeTestbed()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.TrainingShards > 0:
		return nil, fmt.Errorf("lyra: TrainingShards/InferenceShards %d/%d: the testbed is one training and one inference pool (sharded topologies run in the simulator)", cfg.TrainingShards, cfg.InferenceShards)
	case cfg.RestartBackoff:
		return nil, fmt.Errorf("lyra: RestartBackoff: the testbed's tick loop does not implement restart backoff")
	case cfg.QuarantineHysteresis:
		return nil, fmt.Errorf("lyra: QuarantineHysteresis: the testbed's tick loop does not implement quarantine hysteresis")
	case opt.UtilCompress < 0:
		return nil, fmt.Errorf("lyra: UtilCompress %d negative (0 selects the default of 4)", opt.UtilCompress)
	}
	opt = opt.Normalize()
	r := newRun(cfg, tr)
	defer r.recoverViolation(&err)

	s, orch, _ := oneStateScheme(cfg, r.tr.Horizon, opt.UtilCompress, nil)
	tbCfg := testbed.Config{
		Cluster:         cfg.Cluster,
		SchedInterval:   float64(cfg.SchedInterval),
		OrchInterval:    float64(cfg.OrchInterval),
		PreemptOverhead: cfg.PreemptOverhead,
		Scaling:         cfg.Scaling,
		MaxSimTime:      cfg.MaxTime,
		Audit:           cfg.Audit,
		Obs:             r.rec,
	}
	if cfg.Faults.Enabled() {
		fp := cfg.Faults
		tbCfg.Faults = &fp
	}
	rep = newReport(testbed.New(tbCfg, r.tr, s, orch).Run(r.tr.Horizon))
	rep.Events = r.buf.Bytes() // nil when recording was off
	return rep, nil
}
