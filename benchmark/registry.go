package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"lyra"
	"lyra/internal/experiments"
	"lyra/internal/prof"
	"lyra/internal/runner"
)

// registryInput is the researcher's workload: regenerate seven tables
// through one memoizing pool. The tables are what they are — Params carries
// the only seed the experiments read, and changing it redraws every trace
// (3.6-6.8 s per pass over seeds 1-6) — so -seed permutes the order the
// experiments are requested in instead: which request of a shared
// simulation executes it and which ones hit the cache changes, the set of
// simulations does not.
type registryInput struct {
	params experiments.Params
	ids    []string                 // canonical order, for the table digest
	order  []experiments.Experiment // the seed's request order
	probe  runner.Spec
}

func buildRegistry(p experiments.Params, ids []string, seed int64) (*registryInput, error) {
	in := &registryInput{params: p, ids: ids}
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("benchmark: experiment %q is not registered", id)
		}
		in.order = append(in.order, e)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(in.order), func(i, k int) {
		in.order[i], in.order[k] = in.order[k], in.order[i]
	})
	// The probe cell is table5's Lyra/Basic row, declared the way the
	// experiments package declares it, so that its key matches.
	cfg := lyra.DefaultConfig()
	cfg.Cluster = p.ClusterConfig()
	cfg.Seed = p.Seed
	cfg.Audit = p.Audit
	in.probe = runner.NewSpec(cfg, p.TraceConfig()).Named("probe/basic/lyra")
	if _, err := in.probe.Key(); err != nil {
		return nil, err
	}
	// Every table is computed from this one base trace; a malformed one is
	// better found here than inside the first pass.
	if err := lyra.GenerateTrace(p.TraceConfig()).Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// pass is one registry pass over a fresh pool.
type pass struct {
	out   outcome
	stats runner.Stats // the pass's own traffic, before the probe
	expMS map[string]float64
}

func (in *registryInput) run() (outcome, error) {
	ps, err := in.pass(nil)
	return ps.out, err
}

// pass regenerates every table, then asks the same pool for the probe cell,
// which must be served from the cache. The experiments report their own
// failures by panicking; that becomes this repetition's error.
func (in *registryInput) pass(col *prof.Collector) (ps pass, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("registry-sim: %v", r)
		}
	}()
	p := in.params
	// One worker: the box has two cores and shares them. With two workers
	// every experiment waits for the slower core, and whatever else runs on
	// the box for a few seconds moved a pass by 20% and more (measured: the
	// spread of ten runs fell from 19% to 3% with one). The pool's
	// memoization, the traffic this workload is about, is the same.
	p.Pool = runner.New(1)
	p.Pool.Profile(col)
	tables := make(map[string][]byte, len(in.order))
	ps.expMS = make(map[string]float64, len(in.order))
	for _, e := range in.order {
		start := time.Now()
		var buf bytes.Buffer
		for _, tab := range e.Run(p) {
			tab.Fprint(&buf)
		}
		ps.expMS[e.Name] = ms(time.Since(start))
		tables[e.Name] = buf.Bytes()
	}
	before := p.Pool.Stats()
	rep, err := p.Pool.Sim(in.probe)
	if err != nil {
		return ps, err
	}
	if after := p.Pool.Stats(); after.Executed != before.Executed || after.Hits != before.Hits+1 {
		return ps, fmt.Errorf("registry-sim: probe cell was executed, not served from the pool's cache (%v)", after)
	}
	ps.stats = before
	h := sha256.New()
	for _, id := range in.ids {
		h.Write(tables[id])
	}
	ps.out = outcome{digest: fmt.Sprintf("%x", h.Sum(nil)), rep: rep}
	return ps, nil
}

// layers alternates plain and profiled passes. The program's own spans are
// all the layer view there is here: the pool hands every executed
// simulation a profiler of its own, and their self times are summed by name.
func (in *registryInput) layers(m metricSet, until time.Time, outDir string) error {
	traceGenMetrics(m, in.params.TraceConfig())

	var ps pass
	var col *prof.Collector
	_, plainMS, err := pairs(m, until, 0, in.run, func() (outcome, error) {
		col = prof.NewCollector(nil)
		var err error
		ps, err = in.pass(col)
		return ps.out, err
	})
	if err != nil {
		return err
	}
	m.set("runner.sims_requested", float64(ps.stats.Requests))
	m.set("runner.sims_executed", float64(ps.stats.Executed))
	m.set("runner.cache_hit_ratio", ps.stats.HitRate())
	m.set("runner.traces_synthesized", float64(ps.stats.TraceGens))
	m.set("runner.sims_per_s", float64(ps.stats.Executed)/(plainMS/1e3))
	for id, v := range ps.expMS {
		m.set("experiments."+id+".ms", v)
	}
	// The paper's two noisiest headline statistics, from the probe cell.
	m.set("sim.preemptions", float64(ps.out.rep.Preemptions))
	m.set("sim.preempt_ratio", ps.out.rep.PreemptionRatio)
	m.set("sim.queue_p99_s", ps.out.rep.Queue.P99)
	foldProf(m, col)
	// Every track is one whole simulation, so coverage is taken over all.
	var roots, window int64
	for _, tr := range col.Tracks() {
		rep := tr.P.Report()
		window += rep.WindowNS
		for _, n := range rep.Phases {
			roots += n.TotalNS
		}
	}
	if window > 0 {
		m.set("prof.attributed_pct", 100*float64(roots)/float64(window))
	}
	return writeTrace(col, filepath.Join(outDir, "registry-sim.trace.json"))
}
