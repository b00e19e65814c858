package lyra

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"lyra/internal/obs"
)

// reclaimStreamPin is the sha256 of the event stream of the run in
// TestReclaimStreamPinned.
const reclaimStreamPin = "19829ca50ad57d5cb72d20f85bc71d0924a37a66396730ad7479513c09c88aed"

// TestReclaimStreamPinned pins, byte for byte, an event stream that loans
// and reclaims: testdata/golden_events.jsonl never reclaims, so without this
// a change to the reclaim planner or to the orchestrator applying its plans
// could move orch.loan, reclaim.plan and job.preempt events unseen. The
// run is small and contended (Ideal scenario, 16+16 servers, a two-day
// trace), and the test also requires the stream to exercise what the pin
// guards: phase-2 picks, scale-ins, preemptions, and plans whose empty
// scale_in encodes as [] while an empty preempt_jobs encodes as null.
func TestReclaimStreamPinned(t *testing.T) {
	tcfg := DefaultTraceConfig(1)
	tcfg.Days = 2
	tcfg.TrainingGPUs = 128
	tr := GenerateTrace(tcfg)
	cfg := DefaultConfig()
	cfg.Cluster = ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	Ideal.Apply(&cfg, tr, 1)
	cfg.SchedInterval = 300
	cfg.Events = true
	cfg.Audit = true
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadJSONL(bytes.NewReader(r.Events))
	if err != nil {
		t.Fatal(err)
	}
	var plans, phase2, scaleIns, preempts int
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindReclaimPlan:
			plans++
			if in, _ := ev.F["scale_in"].([]any); len(in) > 0 {
				scaleIns++
			}
			picks, _ := ev.F["picks"].([]any)
			for _, p := range picks {
				if p.(map[string]any)["phase"] == 2.0 {
					phase2++
				}
			}
		case obs.KindJobPreempt:
			if ev.Cause == "reclaim" {
				preempts++
			}
		}
	}
	emptyScaleIn := bytes.Count(r.Events, []byte(`"scale_in":[]`))
	nullPreempt := bytes.Count(r.Events, []byte(`"preempt_jobs":null`))
	for what, n := range map[string]int{
		"reclaim.plan events": plans, "phase-2 picks": phase2,
		"non-empty scale-ins": scaleIns, "reclaim preemptions": preempts,
		"plans with scale_in []": emptyScaleIn, "plans with preempt_jobs null": nullPreempt,
	} {
		if n == 0 {
			t.Errorf("the stream has no %s: the pin no longer covers them", what)
		}
	}
	t.Logf("%d reclaim.plan events, %d phase-2 picks, %d non-empty scale-ins, %d preemptions, %d empty scale_in, %d null preempt_jobs",
		plans, phase2, scaleIns, preempts, emptyScaleIn, nullPreempt)
	if got := fmt.Sprintf("%x", sha256.Sum256(r.Events)); got != reclaimStreamPin {
		t.Errorf("event stream hash = %s, want %s", got, reclaimStreamPin)
	}
}
