package runner

import (
	"bytes"
	"testing"

	"lyra"
)

// The event stream is part of each report, so the determinism guarantee the
// experiment registry already enforces (serial and parallel pools render the
// same bytes) must extend to the telemetry: a one-worker pool and an
// eight-worker pool running the same batch must return byte-identical JSONL
// streams per spec.
func TestEventStreamSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	mkSpecs := func() []Spec {
		base := NewSpec(tinyCfg(), tinyGen())
		base.Config.Events = true
		fifo := base
		fifo.Config.Scheduler = lyra.SchedFIFO
		fifo.Config.Elastic = false
		fifo.Config.Loaning = false
		noLoan := base
		noLoan.Config.Loaning = false
		return []Spec{base, fifo, noLoan}
	}
	serial, err := New(1).SimAll(mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(8).SimAll(mkSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if len(serial[i].Events) == 0 {
			t.Errorf("spec %d: empty event stream", i)
			continue
		}
		if !bytes.Equal(serial[i].Events, parallel[i].Events) {
			t.Errorf("spec %d: serial and parallel pools recorded different event streams (%d vs %d bytes)",
				i, len(serial[i].Events), len(parallel[i].Events))
		}
	}
}
