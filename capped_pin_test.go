package lyra

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lyra/internal/obs"
)

// cappedTrace is a three-day trace whose jobs sit far on either side of
// t = 150000: the first three hours of a 384-GPU trace (31 jobs that a
// 16+16 cluster finishes by t ≈ 70600, borrowing inference servers on the
// way), then a one-day 8192-GPU trace moved to start at t = 172800: 4,970
// jobs a run capped at 150000 never sees arrive.
func cappedTrace() *Trace {
	tcfg := DefaultTraceConfig(3)
	tcfg.Days = 3
	tcfg.TrainingGPUs = 384
	head := GenerateTrace(tcfg)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 8192
	tail := GenerateTrace(tcfg)
	tr := &Trace{Horizon: head.Horizon, Config: head.Config}
	for _, j := range head.Jobs {
		if j.Arrival < 10800 {
			tr.Jobs = append(tr.Jobs, j.Clone())
		}
	}
	for _, j := range tail.Jobs {
		c := j.Clone()
		c.Arrival += 2 * 86400
		c.LastEnqueue = c.Arrival
		tr.Jobs = append(tr.Jobs, c)
	}
	for i, j := range tr.Jobs {
		j.ID = i
	}
	return tr
}

// TestCappedRunPinned pins two capped, audited runs: the report's digest
// (the sha256 of its %+v form with Raw, Prof and Events dropped, as the
// repository benchmark digests it) and the sha256 of the event stream.
//
//   - capped-16+16: cappedTrace under loaning, capped at t = 150000. Every
//     job that can arrive has finished long before the cap, yet the trace
//     still holds jobs past it, so scheduler and orchestrator epochs keep
//     running to the cap: the stream must go on after the last job.finish.
//   - sharded-2+2: a two-day trace on a 2+2 sharded cluster with stragglers
//     and wrong running-time estimates, capped at the end of day one.
func TestCappedRunPinned(t *testing.T) {
	capped := DefaultConfig()
	capped.Cluster = smallCluster()
	capped.Audit = true
	capped.Events = true
	capped.MaxTime = 150000

	tcfg := DefaultTraceConfig(4)
	tcfg.Days = 2
	tcfg.TrainingGPUs = 256
	sharded := capped
	sharded.TrainingShards, sharded.InferenceShards = 2, 2
	sharded.Faults = FaultPlan{Seed: 9, StragglerFrac: 0.3}
	sharded.FracWrongEstimate, sharded.MaxEstimateError = 0.4, 0.25
	sharded.MaxTime = 86400

	for _, tc := range []struct {
		name               string
		cfg                Config
		tr                 *Trace
		report, eventsHash string
	}{
		{"capped-16+16", capped, cappedTrace(),
			"3dde039e50f64c3560d0ee6df5bee6ff3bdb1b3b3bb0113b3f758b92fa33410f",
			"8cda24a6c084ac51138dddb70b2e747ba7b17d63aef3e4ca76874ebc69c7e4ce"},
		{"sharded-2+2", sharded, GenerateTrace(tcfg),
			"007261f00fdeffa6fd156d81fce32da111bf956ea2984911729baf2e0b396dfd",
			"4186b0e88740f0678ec076a5913b95780374e58d56d53a3f1f98a777605da124"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			past := 0
			for _, j := range tc.tr.Jobs {
				if float64(j.Arrival) > tc.cfg.MaxTime {
					past++
				}
			}
			if past == 0 {
				t.Fatalf("no job arrives past MaxTime %g: the run is not capped", tc.cfg.MaxTime)
			}
			rep, err := Run(tc.cfg, tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
			if err != nil {
				t.Fatal(err)
			}
			lastFinish, after := -1, 0
			for i, ev := range events {
				if ev.Kind == obs.KindJobFinish {
					lastFinish, after = i, 0
				} else {
					after++
				}
			}

			if tc.name == "capped-16+16" {
				if past < 2000 || rep.Completed != len(tc.tr.Jobs)-past {
					t.Fatalf("%d of %d jobs past the cap, %d completed: not every job that can arrive finished",
						past, len(tc.tr.Jobs), rep.Completed)
				}
				if lastFinish < 0 || after == 0 || events[lastFinish].T > tc.cfg.MaxTime/2 {
					t.Errorf("last job.finish is event %d of %d: want it well before the cap and events after it",
						lastFinish, len(events))
				}
			}
			c := *rep
			c.Raw, c.Prof, c.Events = nil, nil, nil
			report := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", c))))
			eventsHash := sha256.Sum256(rep.Events)
			if report != tc.report || hex.EncodeToString(eventsHash[:]) != tc.eventsHash {
				t.Errorf("report digest %s, want %s\nevents digest %x, want %s\n(%d events, %d of %d jobs completed, %d past the cap)",
					report, tc.report, eventsHash, tc.eventsHash, len(events), rep.Completed, rep.Total, past)
			}
		})
	}
}
