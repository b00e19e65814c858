package lyra_test

import (
	"bytes"
	"testing"

	"lyra"
	"lyra/internal/prof"
)

// TestProfilingDoesNotPerturbEvents is the separation contract of the span
// profiler (DESIGN.md §12): the obs event stream records simulated-time
// decisions and is pinned byte for byte by golden tests, while prof spans
// measure wall time. Running the same audited scenario with profiling off
// and on must therefore produce byte-identical event streams — a single
// decision shifted by the instrumentation would diverge at least one line.
// The 1+1 and 2+2 cases pin that every topology schedules on the engine
// goroutine, where the shard schedulers' phase spans are recorded. The
// faulted case pins that the engine's set-up — generating the fault schedule
// and loading the initial timeline — is named, not left as "sim" self time,
// and the proactive case that training the usage forecaster is named
// inside "prepare".
func TestProfilingDoesNotPerturbEvents(t *testing.T) {
	t.Run("one-state", func(t *testing.T) { profilingDoesNotPerturbEvents(t, func(*lyra.Config) {}) })
	t.Run("1+1", func(t *testing.T) {
		profilingDoesNotPerturbEvents(t, func(c *lyra.Config) { c.TrainingShards, c.InferenceShards = 1, 1 })
	})
	t.Run("2+2", func(t *testing.T) {
		profilingDoesNotPerturbEvents(t, func(c *lyra.Config) { c.TrainingShards, c.InferenceShards = 2, 2 })
	})
	t.Run("faulted", func(t *testing.T) {
		profilingDoesNotPerturbEvents(t, func(c *lyra.Config) {
			c.Faults = lyra.FaultPlan{Seed: 5, ServerMTBF: 21600, RackOutMTBF: 43200}
		})
	})
	t.Run("proactive", func(t *testing.T) {
		profilingDoesNotPerturbEvents(t, func(c *lyra.Config) { c.ProactiveReclaim = true })
	})
}

func profilingDoesNotPerturbEvents(t *testing.T, tweak func(*lyra.Config)) {
	var cfg lyra.Config
	run := func(p *prof.Profiler) *lyra.Report {
		tcfg := lyra.DefaultTraceConfig(7)
		tcfg.Days = 1
		tcfg.TrainingGPUs = 64
		tr := lyra.GenerateTrace(tcfg)

		cfg = lyra.DefaultConfig()
		cfg.Cluster = lyra.ClusterConfig{TrainingServers: 8, InferenceServers: 8}
		cfg.Events = true
		cfg.SchedInterval = 300
		cfg.Audit = true
		tweak(&cfg)

		rep, err := lyra.RunProfiled(cfg, tr, lyra.Mix{}, p)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}

	plain := run(nil)
	if plain.Prof != nil {
		t.Fatal("unprofiled run carries a Prof report")
	}
	profiled := run(prof.New(nil))
	if !bytes.Equal(plain.Events, profiled.Events) {
		t.Fatalf("event streams diverge under profiling: %d vs %d bytes",
			len(plain.Events), len(profiled.Events))
	}

	// The profiled run's self-timing report must attribute the simulation's
	// known layers: the three top-level Run stages, the per-kind engine
	// spans under "sim", the Lyra scheduler phases under the scheduler
	// epoch, and the audit span (Audit is on in this scenario).
	r := profiled.Prof
	if r == nil {
		t.Fatal("profiled run has no Prof report")
	}
	paths := [][]string{
		{"prepare"},
		{"sim"},
		{"report"},
		{"sim", "timeline.load"},
		{"sim", "epoch.sched"},
		{"sim", "epoch.orch"},
		{"sim", "arrival"},
		{"sim", "finish"},
		{"sim", "metrics"},
		{"sim", "epoch.sched", "phase1"},
		{"sim", "epoch.sched", "phase1.hetero"},
		{"sim", "epoch.sched", "phase2"},
		{"sim", "epoch.sched", "phase2", "phase2.mckp"},
		{"sim", "epoch.sched", "phase2", "phase2.apply"},
		{"sim", "epoch.sched", "audit"},
	}
	if cfg.Faults.Enabled() {
		paths = append(paths, []string{"sim", "faults.schedule"}, []string{"sim", "crash"}, []string{"sim", "recover"})
	}
	if cfg.ProactiveReclaim {
		paths = append(paths, []string{"prepare", "forecast.fit"})
	}
	for _, path := range paths {
		n := r.Find(path...)
		if n == nil {
			t.Errorf("report missing phase %v", path)
			continue
		}
		if n.Count <= 0 || n.TotalNS < 0 {
			t.Errorf("phase %v has count=%d total=%d", path, n.Count, n.TotalNS)
		}
	}

	// Wall-clock coverage: the three Run stages are back to back, so nearly
	// the whole profiled window must be attributed to named phases.
	if a := r.Attributed(); a < 90 {
		t.Errorf("attributed = %.1f%%, want >= 90%%", a)
	}
}
