package sched

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/inference"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// reference is the scheduler the dirty-set layer is compared against, for
// the two things the auditor's recounts cannot express. Embedding the
// interface hides Memoryless, so the engine never skips an epoch; and
// Schedule drops every buffer the wrapped scheduler reuses first — its
// placement scratch, Lyra's phase-2 workspace, AFS's throughput cache and
// candidate buffers, Pollux's GA workspace and per-epoch views — so every
// epoch decides from cold ones.
type reference struct{ sim.Scheduler }

func (r reference) Schedule(st *sim.State) {
	switch s := r.Scheduler.(type) {
	case *Lyra:
		s.ws, s.sc = alloc.Workspace{}, scratch{}
	case *AFS:
		s.cache, s.sc = nil, scratch{}
	case *Pollux:
		s.Config.Work, s.sc = nil, scratch{}
		s.running, s.byID, s.cands, s.extras, s.resized = nil, nil, nil, nil, nil
	case *FIFO:
		s.sc = scratch{}
	case *Gandiva:
		s.sc = scratch{}
	}
	r.Scheduler.Schedule(st)
}

// FuzzIncrementalVsRescan is the differential gate of the dirty-set layer
// (DESIGN.md §10): every random workload — arrivals, finishes, elastic
// resizes, preemptions, injected crashes/recoveries and orchestrator moves —
// runs with the invariant auditor on, which rescans: every read of a
// maintained view is recounted from the Running map first, and every
// epoch's first-try misses by the full pending-queue scan. On top of that
// each workload runs twice, under the plain scheduler and under reference,
// and the two must produce byte-identical decision-trace streams and
// identical per-job outcomes. A second pair runs without event recording,
// where the quiescent-epoch skip is live on the plain side, and must
// reproduce the same outcomes again.
func FuzzIncrementalVsRescan(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0), false)
	f.Add(int64(7), uint8(33), uint8(1), true)
	f.Add(int64(42), uint8(48), uint8(2), false)
	f.Add(int64(-11), uint8(25), uint8(3), true)
	f.Add(int64(99), uint8(40), uint8(4), true)
	f.Add(int64(1234), uint8(60), uint8(0), true)
	f.Add(int64(15), uint8(30), uint8(0), true) // rack outages + degraded mode
	f.Add(int64(21), uint8(44), uint8(3), true) // rack outages + degraded mode
	f.Add(int64(-9), uint8(36), uint8(4), true) // rack outages, plain recovery
	f.Add(int64(36), uint8(50), uint8(2), true) // degraded mode, server crashes only
	f.Fuzz(func(t *testing.T, seed int64, njobs uint8, schedSel uint8, faults bool) {
		const horizon = int64(20000)
		n := int(njobs%64) + 4

		genJobs := func() []*job.Job {
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]*job.Job, 0, n)
			for i := 0; i < n; i++ {
				gpw := []int{1, 1, 2, 4}[rng.Intn(4)]
				min := 1 + rng.Intn(2)
				max := min + rng.Intn(3)
				j := job.New(i, int64(rng.Intn(int(horizon/2))), job.Generic, gpw, min, max,
					float64(60+rng.Intn(2400)))
				j.Elastic = max > min
				j.Fungible = rng.Intn(2) == 0
				j.Hetero = rng.Intn(4) == 0
				j.Checkpoint = rng.Intn(2) == 0
				j.EstimatedRuntime = float64(60 + rng.Intn(2400))
				jobs = append(jobs, j)
			}
			return jobs
		}

		newSched := func() sim.Scheduler {
			switch schedSel % 5 {
			case 0:
				return NewLyra()
			case 1:
				return &FIFO{}
			case 2:
				return &Gandiva{}
			case 3:
				return &AFS{}
			default:
				return NewPollux(seed + 5)
			}
		}

		run := func(s sim.Scheduler, rec *obs.Recorder) *sim.Result {
			jobs := genJobs()
			c := cluster.New(cluster.Config{TrainingServers: 4, InferenceServers: 4})
			util := inference.GenerateUtilization(
				inference.DefaultUtilizationConfig(seed+13), horizon, 300)
			infSched := inference.NewScheduler(util, 4, 0.1)
			orch := orchestrator.New(infSched, reclaim.Lyra{}, s.Less)
			orch.IncludeElasticDemand = true
			var plan *fault.Plan
			if faults {
				plan = &fault.Plan{Seed: seed + 1, ServerMTBF: 9000, ServerMTTR: 600}
				if seed%2 != 0 {
					// Odd seeds add correlated rack outages on top of the
					// independent crashes, so the differential gate also
					// covers whole-domain preemption storms.
					plan.RackOutMTBF = 7000
					plan.RackMTTR = 500
				}
			}
			cfg := sim.Config{
				Audit:  true,
				Obs:    rec,
				Faults: plan,
				InferenceUtil: func(ts int64) float64 {
					return infSched.UtilizationAt(ts)
				},
			}
			if faults && seed%3 == 0 {
				// Every third seed turns the degraded-mode policies on, so
				// backoff holds and quarantine hold-downs are also compared
				// decision-by-decision against the reference.
				cfg.BackoffBase = 45
				cfg.BackoffCap = 600
				cfg.HystCrashes = 2
				cfg.HystWindow = 4000
				cfg.HystHold = 700
			}
			return sim.New(c, jobs, horizon, s, orch, cfg).Run()
		}

		// Pair 1: events on. The skip is disabled (recording runs always
		// schedule), so this compares the reused MCKP workspace and the
		// throughput cache against fresh ones, decision by decision.
		var incB, refB bytes.Buffer
		incRes := run(newSched(), obs.NewRecorder(obs.NewJSONLWriter(&incB)))
		refRes := run(reference{newSched()}, obs.NewRecorder(obs.NewJSONLWriter(&refB)))
		if !bytes.Equal(incB.Bytes(), refB.Bytes()) {
			reportStreamDiff(t, incB.String(), refB.String())
		}
		compareResults(t, "events-on", incRes, refRes)

		// Pair 2: events off — the quiescent-epoch skip is live on the
		// incremental side (for memoryless schedulers). Outcomes must still
		// match the reference, and the events-on run.
		incOff := run(newSched(), nil)
		refOff := run(reference{newSched()}, nil)
		compareResults(t, "events-off", incOff, refOff)
		compareResults(t, "obs-on-vs-off", incRes, incOff)
	})
}

// reportStreamDiff fails the test at the first differing JSONL line.
func reportStreamDiff(t *testing.T, inc, ref string) {
	t.Helper()
	incLines, refLines := strings.Split(inc, "\n"), strings.Split(ref, "\n")
	for i := 0; i < len(incLines) && i < len(refLines); i++ {
		if incLines[i] != refLines[i] {
			t.Fatalf("event streams diverge at line %d:\nincremental: %s\nreference:   %s",
				i+1, incLines[i], refLines[i])
		}
	}
	t.Fatalf("event streams differ in length: incremental %d lines, reference %d",
		len(incLines), len(refLines))
}

// compareResults asserts the scheduler-decision-visible outcome of two runs
// is identical: counters, per-job final states, queuing ratios and usage
// series. SkippedSchedEpochs is intentionally not compared — it is the one
// field that legitimately differs between the fast path and the reference.
func compareResults(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	if a.Completed != b.Completed {
		t.Fatalf("%s: completed %d vs %d", label, a.Completed, b.Completed)
	}
	if a.Preemptions != b.Preemptions || a.ScalingOps != b.ScalingOps {
		t.Fatalf("%s: preemptions/scalingOps (%d,%d) vs (%d,%d)",
			label, a.Preemptions, a.ScalingOps, b.Preemptions, b.ScalingOps)
	}
	if a.Crashes != b.Crashes || a.Recoveries != b.Recoveries {
		t.Fatalf("%s: crashes/recoveries (%d,%d) vs (%d,%d)",
			label, a.Crashes, a.Recoveries, b.Crashes, b.Recoveries)
	}
	if a.SchedEpochs != b.SchedEpochs {
		t.Fatalf("%s: sched epochs %d vs %d", label, a.SchedEpochs, b.SchedEpochs)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("%s: job counts %d vs %d", label, len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.ID != jb.ID || ja.State != jb.State || ja.FinishTime != jb.FinishTime ||
			ja.QueueTime != jb.QueueTime || ja.Preemptions != jb.Preemptions ||
			ja.Remaining != jb.Remaining {
			t.Fatalf("%s: job %d final state diverges:\n%+v\nvs\n%+v", label, ja.ID, ja, jb)
		}
	}
	if len(a.HourlyQueuedRatio) != len(b.HourlyQueuedRatio) {
		t.Fatalf("%s: hourly ratio lengths %d vs %d",
			label, len(a.HourlyQueuedRatio), len(b.HourlyQueuedRatio))
	}
	for h := range a.HourlyQueuedRatio {
		if a.HourlyQueuedRatio[h] != b.HourlyQueuedRatio[h] {
			t.Fatalf("%s: hourly queued ratio[%d] %g vs %g",
				label, h, a.HourlyQueuedRatio[h], b.HourlyQueuedRatio[h])
		}
	}
	compareSeries(t, label+": train usage", a.TrainUsage.Values, b.TrainUsage.Values)
	compareSeries(t, label+": overall usage", a.OverallUsage.Values, b.OverallUsage.Values)
	compareSeries(t, label+": on-loan usage", a.OnLoanUsage.Values, b.OnLoanUsage.Values)
}

func compareSeries(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: series lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s: sample %d: %g vs %g", label, i, a[i], b[i])
		}
	}
}
