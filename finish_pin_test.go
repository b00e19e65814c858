package lyra

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lyra/internal/obs"
)

// TestFinishRescheduleStreamPinned pins the event streams of two audited
// runs in which running jobs change throughput over and over, so the
// engine moves or drops a finish event already in its timeline thousands
// of times: 3,667 in the first run and 1,299 in the second, counted when
// the pin was recorded. A change to how a finish event is replaced, or to
// the order in which same-instant events pop, moves a job.finish or
// everything after it and shows here. Each stream must also hold at least
// 1,000 scale and preempt events, so the runs cannot drift into ones that
// barely reschedule.
//
//   - ideal-2+2: the Ideal scenario (every job elastic) on a 2+2 sharded
//     cluster under imperfect scaling, with stragglers and server crashes.
//   - basic-capped: the Basic scenario on the unsharded cluster, capped
//     mid-drain: the last job arrives before t = 86400 and jobs are still
//     running when the cap stops the run at t = 100000.
func TestFinishRescheduleStreamPinned(t *testing.T) {
	tcfg := DefaultTraceConfig(2)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 256
	ideal := DefaultConfig()
	ideal.Cluster = ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	ideal.Audit = true
	ideal.Events = true
	idealTr := GenerateTrace(tcfg)
	Ideal.Apply(&ideal, idealTr, 2)
	ideal.Scaling.PerWorkerLoss = 0.2
	ideal.TrainingShards, ideal.InferenceShards = 2, 2
	ideal.Faults = FaultPlan{Seed: 4, ServerMTBF: 21600, ServerMTTR: 600, StragglerFrac: 0.2}

	basic := DefaultConfig()
	basic.Cluster = ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	basic.Audit = true
	basic.Events = true
	tcfg.TrainingGPUs = 768
	basicTr := GenerateTrace(tcfg)
	Basic.Apply(&basic, basicTr, 2)
	basic.MaxTime = 100000

	for _, tc := range []struct {
		name string
		cfg  Config
		tr   *Trace
		want string
	}{
		{"ideal-2+2", ideal, idealTr, "e14755423ba2e9614d8e3d21bd0d280b45beb52a1bdebb4f084bc00e8d456c4e"},
		{"basic-capped", basic, basicTr, "0a96e24933df72f73c0c5710d697f87dcf49e0090cbdb07b54a185f3034018c8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.cfg, tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.MaxTime > 0 && rep.Completed == len(tc.tr.Jobs) {
				t.Errorf("all %d jobs completed by MaxTime %g: the cap does not cut the drain", rep.Completed, tc.cfg.MaxTime)
			}
			moves := 0
			for _, k := range []obs.Kind{obs.KindJobScaleUp, obs.KindJobScaleDown, obs.KindJobPreempt} {
				moves += bytes.Count(rep.Events, []byte(`"kind":"`+k+`"`))
			}
			if moves < 1000 {
				t.Errorf("%d scale and preempt events, want at least 1000", moves)
			}
			sum := sha256.Sum256(rep.Events)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("event stream hash = %s, want %s (%d bytes, %d of %d jobs completed)",
					got, tc.want, len(rep.Events), rep.Completed, len(tc.tr.Jobs))
			}
			t.Logf("%d scale and preempt events, %d of %d jobs completed", moves, rep.Completed, len(tc.tr.Jobs))
		})
	}
}
