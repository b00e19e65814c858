package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the trace decoder: it must never
// panic, and anything it accepts must be a valid trace that round-trips.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	tr := Generate(Config{Seed: 1, Days: 1, TrainingGPUs: 64, LoadFactor: 0.5})
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("id,arrival,model,gpus_per_worker,min_workers,max_workers,duration_at_max,fungible,elastic,hetero,checkpoint\n")
	f.Add("garbage")
	f.Add("id,arrival\n1,2\n")
	f.Add("id,arrival,model,gpus_per_worker,min_workers,max_workers,duration_at_max,fungible,elastic,hetero,checkpoint\n0,0,0,1,1,1,10,false,false,false,false\n")
	f.Add("id,arrival,model,gpus_per_worker,min_workers,max_workers,duration_at_max,fungible,elastic,hetero,checkpoint\n0,0,0,1,1,1,10,false,false,false,false\n0,5,0,1,1,1,10,false,false,false,false\n")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(tr2.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip changed job count: %d -> %d", len(tr.Jobs), len(tr2.Jobs))
		}
	})
}
