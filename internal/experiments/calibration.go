package experiments

import (
	"fmt"
	"math"

	"lyra"
	"lyra/internal/cluster"
	"lyra/internal/runner"
)

// calibrationSpecs declares the §7.2 pair: one Spec — the same Config, the
// same memoized 60-job trace — handed to the simulator and, with the Testbed
// field set, to the prototype.
func calibrationSpecs(p Params) []runner.Spec {
	spec := runner.Spec{
		Name: "calibration/sim",
		Config: lyra.Config{
			Cluster:       cluster.TestbedConfig(),
			Elastic:       true,
			Loaning:       true,
			SchedInterval: 30,
			OrchInterval:  300,
			Seed:          p.Seed,
			Audit:         p.Audit,
		},
		Trace: runner.TraceSpec{TestbedJobs: 60, TestbedSeed: p.Seed},
	}
	proto := spec.Named("calibration/testbed")
	proto.Testbed = &lyra.TestbedOptions{UtilCompress: 1}
	return []runner.Spec{spec, proto}
}

// Calibration reproduces the simulator-fidelity methodology of §7.2: the
// same small trace is executed by the discrete-event simulator and by the
// prototype runtime under one lyra.Config — the same assembled scheduler
// and orchestrator, the same intervals and utilization timebase — and the
// aggregate queuing/JCT statistics are compared. The paper reports 6.2% and
// 3.4% differences in average and 95%ile JCT and 3.5% / 4.4% in queuing,
// attributing them to worker placement/removal overheads the simulator
// does not capture; here the prototype pays a container launch latency on
// every start and scale-out and completes jobs on tick boundaries.
func Calibration(p Params) []*Table {
	reps := mustSimAll(p, calibrationSpecs(p))
	simRes, tbRes := reps[0], reps[1]

	t := &Table{
		ID:     "calibration",
		Title:  "Simulator vs prototype runtime on the same trace (fidelity check, §7.2)",
		Header: []string{"metric", "simulator", "testbed", "abs_delta", "rel_diff"},
	}
	row := func(name string, s, tb float64) {
		diff := 0.0
		if s != 0 {
			diff = math.Abs(tb-s) / s
		}
		t.Rows = append(t.Rows, []string{name, fmtS(s), fmtS(tb), fmtS(math.Abs(tb - s)), fmtPct(diff)})
	}
	row("queuing mean (s)", simRes.Queue.Mean, tbRes.Queue.Mean)
	row("queuing p95 (s)", simRes.Queue.P95, tbRes.Queue.P95)
	row("JCT mean (s)", simRes.JCT.Mean, tbRes.JCT.Mean)
	row("JCT p95 (s)", simRes.JCT.P95, tbRes.JCT.P95)
	t.Rows = append(t.Rows, []string{"jobs completed",
		fmt.Sprintf("%d", simRes.Completed), fmt.Sprintf("%d", tbRes.Completed), "-", "-"})
	t.Notes = append(t.Notes,
		"paper: simulator within 6.2%/3.4% of testbed JCT and 3.5%/4.4% of queuing; the prototype is the slower side here too: it completes jobs on tick boundaries (about half a tick of the JCT gap) and pays the container launch latency (the rest)")
	return []*Table{t}
}
