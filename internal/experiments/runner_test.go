package experiments

import (
	"bytes"
	"sync"
	"testing"

	"lyra/internal/runner"
)

// wallClockExperiments print measured wall time (reclaimopt: the reclaim
// solvers' run times) and are therefore excluded from the byte-identity
// guarantee; see DESIGN.md §6.
var wallClockExperiments = map[string]bool{
	"reclaimopt": true,
}

// renderDeterministic prints every deterministic registry experiment and
// returns the bytes with each experiment's tables.
func renderDeterministic(p Params) ([]byte, map[string][]*Table) {
	var buf bytes.Buffer
	tables := make(map[string][]*Table)
	for _, e := range Registry() {
		if wallClockExperiments[e.Name] {
			continue
		}
		tables[e.Name] = e.Run(p)
		for _, tab := range tables[e.Name] {
			tab.Fprint(&buf)
		}
	}
	return buf.Bytes(), tables
}

// registryPass is one rendering of the deterministic registry at tiny
// scale: the bytes, each experiment's tables, and the pool that ran it with
// its stats right after the pass.
type registryPass struct {
	out    []byte
	tables map[string][]*Table
	params Params
	stats  runner.Stats
}

// serialPass renders the registry once on a one-worker pool, the serial
// side of TestRegistrySerialVsParallelIdentity; the tests that need a
// rendered registry read this one pass instead of rendering their own.
var serialPass = sync.OnceValue(func() *registryPass {
	p := tiny()
	p.Pool = runner.New(1)
	out, tables := renderDeterministic(p)
	return &registryPass{out: out, tables: tables, params: p, stats: p.Pool.Stats()}
})

// TestRegistrySerialVsParallelIdentity is the acceptance guard for the
// parallel memoizing runner: a serial pool (one worker) and a parallel pool
// (eight workers) must render the full deterministic registry to the very
// same bytes.
func TestRegistrySerialVsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	parallel := tiny()
	parallel.Pool = runner.New(8)

	a := serialPass().out
	b, _ := renderDeterministic(parallel)
	if !bytes.Equal(a, b) {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("serial and parallel output diverge at byte %d:\nserial:   %q\nparallel: %q",
					i, a[lo:i+80], b[lo:min(i+80, len(b))])
			}
		}
		t.Fatalf("serial and parallel output differ in length: %d vs %d", len(a), len(b))
	}
}

// TestRegistryMemoization asserts the runner's economics: one registry pass
// hits the cache across experiments (shared baselines, repeated Lyra runs),
// and a second pass executes zero new simulations.
func TestRegistryMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	pass := serialPass()
	first := pass.stats
	if first.Hits == 0 {
		t.Errorf("one registry pass produced no cache hits; experiments share baselines and should collide")
	}
	if first.Executed >= first.Requests {
		t.Errorf("executed %d of %d requests; memoization saved nothing", first.Executed, first.Requests)
	}

	renderDeterministic(pass.params)
	second := pass.params.Pool.Stats()
	if second.Executed != first.Executed {
		t.Errorf("second pass executed %d new simulations, want 0", second.Executed-first.Executed)
	}
	if second.Hits <= first.Hits {
		t.Errorf("second pass added no hits (%d -> %d)", first.Hits, second.Hits)
	}
	if second.TraceGens != first.TraceGens {
		t.Errorf("second pass synthesized %d new traces, want 0", second.TraceGens-first.TraceGens)
	}
}
