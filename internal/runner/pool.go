package runner

import (
	"fmt"
	"runtime"
	"sync"

	"lyra"
	"lyra/internal/prof"
	"lyra/internal/trace"
)

// Stats counts the pool's memoization traffic.
type Stats struct {
	// Requests is the number of memoized lookups (runs on either
	// substrate; base-trace synthesis is counted separately).
	Requests int64
	// Hits is how many requests were served from the cache or joined an
	// in-flight execution of the same key (singleflight).
	Hits int64
	// Executed is how many functions actually ran (Requests - Hits).
	Executed int64
	// TraceGens is how many base traces / bootstrap sets were synthesized.
	TraceGens int64
}

// HitRate is Hits/Requests (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d requested, %d executed, %d cache hits (%.0f%% hit rate), %d traces synthesized",
		s.Requests, s.Executed, s.Hits, 100*s.HitRate(), s.TraceGens)
}

// Pool is a concurrent, memoizing experiment runner. At most `parallel`
// executions run at once; results are cached by content key for the life of
// the pool, and concurrent requests for the same key share one execution
// (singleflight). Cached results are returned as shared pointers — treat
// them as immutable.
type Pool struct {
	parallel int
	sem      chan struct{}

	mu    sync.Mutex
	calls map[string]*call
	stats Stats

	// profC, when set via Profile, hands each *executed* simulation its own
	// wall-clock profiler (one Chrome-trace track per cell, named by the
	// spec label). Cache hits do not re-profile: the memoized result carries
	// the Prof report of the execution that produced it. Profiling is
	// deliberately outside the cache key — it never changes a run's
	// identity or results.
	profC *prof.Collector
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a pool running at most parallel executions at once;
// parallel <= 0 defaults to GOMAXPROCS. New(1) is the serial reference
// runner: with the same pool inputs it produces byte-identical results to
// any other parallelism, which TestRegistrySerialVsParallelIdentity guards.
func New(parallel int) *Pool {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		parallel: parallel,
		sem:      make(chan struct{}, parallel),
		calls:    make(map[string]*call),
	}
}

// Parallelism reports the worker bound.
func (p *Pool) Parallelism() int { return p.parallel }

// Stats returns a snapshot of the memoization counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Profile attaches a prof.Collector: every simulation executed from now on
// runs under its own profiler, registered as a trace track named by the
// spec label. Profile(nil) detaches (the nil collector hands out nil —
// disabled — profilers).
func (p *Pool) Profile(c *prof.Collector) {
	p.mu.Lock()
	p.profC = c
	p.mu.Unlock()
}

// do memoizes fn under key with singleflight semantics; errors are cached
// like results, so a deterministic failure fails once. bounded selects
// whether fn counts against the worker pool; trace synthesis runs unbounded
// because its callers already hold a worker slot (a bounded nested acquire
// could deadlock a 1-worker pool) and is tallied as TraceGens instead.
func (p *Pool) do(key string, fn func() (any, error), bounded, traceGen bool) (any, error) {
	p.mu.Lock()
	if c, ok := p.calls[key]; ok {
		if !traceGen {
			p.stats.Requests++
			p.stats.Hits++
		}
		p.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call{done: make(chan struct{})}
	p.calls[key] = c
	if traceGen {
		p.stats.TraceGens++
	} else {
		p.stats.Requests++
		p.stats.Executed++
	}
	p.mu.Unlock()

	if bounded {
		p.sem <- struct{}{}
	}
	defer func() {
		if bounded {
			<-p.sem
		}
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err
}

// Sim executes (or recalls) one declared run, on the substrate the spec
// names. Blocks until the result is available.
func (p *Pool) Sim(spec Spec) (*lyra.Report, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}
	v, err := p.do(key, func() (any, error) { return p.runSim(spec) }, true, false)
	if err != nil {
		return nil, fmt.Errorf("runner: %s: %w", spec.label(), err)
	}
	return v.(*lyra.Report), nil
}

// SimAll submits the whole batch at once and waits for every result;
// specs[i] maps to result[i]. Distinct specs fan out over the worker pool;
// duplicate specs collapse onto one execution. The first error (in spec
// order) is returned with every completed result.
func (p *Pool) SimAll(specs []Spec) ([]*lyra.Report, error) {
	reps := make([]*lyra.Report, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = p.Sim(specs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// runSim materializes the trace, adapts config and trace through the spec's
// Mix, and runs the spec's substrate.
func (p *Pool) runSim(spec Spec) (*lyra.Report, error) {
	cfg := spec.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	profC := p.profC
	p.mu.Unlock()
	pr := profC.NewProfiler(spec.label())
	run := pr.Start("run")
	msp := pr.Start("trace.materialize")
	tr, err := p.materializeTrace(spec.Trace)
	msp.End()
	if err != nil {
		run.End()
		return nil, err
	}
	if err := spec.Mix.Apply(&cfg, tr); err != nil {
		run.End()
		return nil, err
	}
	var rep *lyra.Report
	if spec.Testbed != nil {
		rep, err = lyra.RunTestbed(cfg, tr, *spec.Testbed)
	} else {
		rep, err = lyra.RunProfiled(cfg, tr, pr)
	}
	run.End()
	if err == nil && pr.Enabled() {
		// Re-snapshot so the report includes the closed "run" root span and
		// trace materialization.
		rep.Prof = pr.Report()
	}
	return rep, err
}

// materializeTrace returns a private clone of the declared workload: the
// base trace (and any bootstrap set) is synthesized once per pool and
// shared, the clone is the caller's to mutate.
func (p *Pool) materializeTrace(ts TraceSpec) (*lyra.Trace, error) {
	genKey, err := KeyOf("trace", struct {
		Gen         lyra.TraceConfig
		TestbedJobs int
		TestbedSeed int64
	}{ts.Gen, ts.TestbedJobs, ts.TestbedSeed})
	if err != nil {
		return nil, err
	}
	v, err := p.do(genKey, func() (any, error) {
		if ts.TestbedJobs > 0 {
			return trace.GenerateTestbed(ts.TestbedSeed, ts.TestbedJobs), nil
		}
		return lyra.GenerateTrace(ts.Gen), nil
	}, false, true)
	if err != nil {
		return nil, err
	}
	base := v.(*lyra.Trace)

	if b := ts.Bootstrap; b != nil {
		bootKey, err := KeyOf("boots", struct {
			GenKey string
			Days   int
			Count  int
			Seed   int64
		}{genKey, b.Days, b.Count, b.Seed})
		if err != nil {
			return nil, err
		}
		bv, err := p.do(bootKey, func() (any, error) {
			return base.Bootstrap(b.Days, b.Count, b.Seed), nil
		}, false, true)
		if err != nil {
			return nil, err
		}
		boots := bv.([]*lyra.Trace)
		if b.Index < 0 || b.Index >= len(boots) {
			return nil, fmt.Errorf("bootstrap index %d outside [0, %d)", b.Index, len(boots))
		}
		return boots[b.Index].Clone(), nil
	}
	return base.Clone(), nil
}
