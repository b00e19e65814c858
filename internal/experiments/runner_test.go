package experiments

import (
	"bytes"
	"testing"

	"lyra/internal/runner"
)

// wallClockExperiments print measured wall time (reclaimopt: the reclaim
// solvers' run times) and are therefore excluded from the byte-identity
// guarantee; see DESIGN.md §6.
var wallClockExperiments = map[string]bool{
	"reclaimopt": true,
}

// renderDeterministic prints every deterministic registry experiment.
func renderDeterministic(p Params) []byte {
	var buf bytes.Buffer
	for _, e := range Registry() {
		if wallClockExperiments[e.Name] {
			continue
		}
		for _, tab := range e.Run(p) {
			tab.Fprint(&buf)
		}
	}
	return buf.Bytes()
}

// TestRegistrySerialVsParallelIdentity is the acceptance guard for the
// parallel memoizing runner: a serial pool (one worker) and a parallel pool
// (eight workers) must render the full deterministic registry to the very
// same bytes.
func TestRegistrySerialVsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := tiny()
	serial.Pool = runner.New(1)
	parallel := tiny()
	parallel.Pool = runner.New(8)

	a := renderDeterministic(serial)
	b := renderDeterministic(parallel)
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
	p := tiny()
	p.Pool = runner.New(2)

	renderDeterministic(p)
	first := p.Pool.Stats()
	if first.Hits == 0 {
		t.Errorf("one registry pass produced no cache hits; experiments share baselines and should collide")
	}
	if first.Executed >= first.Requests {
		t.Errorf("executed %d of %d requests; memoization saved nothing", first.Executed, first.Requests)
	}

	renderDeterministic(p)
	second := p.Pool.Stats()
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
