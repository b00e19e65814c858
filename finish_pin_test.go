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
// of times: 2,143 in the first run and 1,198 in the second, counted when
// the pin was recorded. A change to how a finish event is replaced, or to
// the order in which same-instant events pop, moves a job.finish or
// everything after it and shows here. Each stream must also hold at least
// 1,000 scale and preempt events, so the runs cannot drift into ones that
// barely reschedule. Make-room scales in only for a gang it places, so
// the runs carry the load that keeps them above that floor.
//
//   - ideal-2+2: the Ideal scenario (every job elastic) on a 2+2 sharded
//     cluster under imperfect scaling, with stragglers and server crashes.
//   - basic-capped: the Basic scenario on a 40+40 unsharded cluster,
//     capped mid-drain: the last job arrives before t = 172800 and jobs
//     are still running when the cap stops the run at t = 186400.
func TestFinishRescheduleStreamPinned(t *testing.T) {
	tcfg := DefaultTraceConfig(2)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 384
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
	basic.Cluster = ClusterConfig{TrainingServers: 40, InferenceServers: 40}
	basic.Audit = true
	basic.Events = true
	tcfg.Days, tcfg.TrainingGPUs = 2, 1920
	basicTr := GenerateTrace(tcfg)
	Basic.Apply(&basic, basicTr, 2)
	basic.MaxTime = 186400

	for _, tc := range []struct {
		name string
		cfg  Config
		tr   *Trace
		want string
	}{
		{"ideal-2+2", ideal, idealTr, "bb94b3e85f0288bfacdd2bd1029f4b9adc9aec46e91f86be97ff4ec8855be1ab"},
		{"basic-capped", basic, basicTr, "ee5b03c80d8382f07ef12632db7bae42d4c898f8363e647b9fe06203cf863be7"},
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
