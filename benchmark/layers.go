package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lyra"
	"lyra/internal/prof"
)

// pairs alternates an untraced and a traced repetition (at least once), each
// from a collected heap as in the timed run, so that the overhead figure
// compares medians taken under the same conditions. It goes on for as long as
// another pair, and after it what the caller still has to do (reserve, in
// untraced repetitions), ends before the deadline going by the pair before.
// The traced repetition must reproduce the untraced digest. It fills the
// three lyra.Run metrics and returns the last untraced outcome and the median
// untraced wall time in milliseconds.
func pairs(m metricSet, until time.Time, reserve float64, plain, traced func() (outcome, error)) (outcome, float64, error) {
	var ref outcome
	var plainMS, tracedMS []float64
	fits := func() bool {
		n := len(plainMS) - 1
		rest := plainMS[n] + tracedMS[n] + reserve*plainMS[n]
		return time.Now().Add(time.Duration(rest * 1e6)).Before(until)
	}
	for len(plainMS) == 0 || fits() {
		runtime.GC()
		start := time.Now()
		out, err := plain()
		if err != nil {
			return ref, 0, err
		}
		plainMS = append(plainMS, ms(time.Since(start)))
		ref = out

		runtime.GC()
		start = time.Now()
		if out, err = traced(); err != nil {
			return ref, 0, err
		}
		tracedMS = append(tracedMS, ms(time.Since(start)))
		if out.digest != ref.digest {
			return ref, 0, fmt.Errorf("traced digest %s differs from untraced %s", out.digest, ref.digest)
		}
	}
	m.set("lyra.Run.traced_wall_ms", median(tracedMS))
	m.set("lyra.Run.trace_overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
	m.set("lyra.Run.jobs_per_s", float64(ref.jobs)/(median(plainMS)/1e3))
	return ref, median(plainMS), nil
}

// layers is the traced run of a simulated workload: the last traced
// repetition's spans are the ones reported and written out, and one more
// repetition records the obs event stream.
func (in *simInput) layers(m metricSet, until time.Time, outDir string) error {
	traceGenMetrics(m, in.trace.Config)

	var t *tracer
	var rep *lyra.Report
	// After the pairs come the kernels and the repetition with events on.
	ref, plainMS, err := pairs(m, until, 1.5, in.run, func() (outcome, error) {
		t = newTracer()
		var err error
		if rep, err = assemble(in.cfg, in.trace, t); err != nil {
			return outcome{}, err
		}
		return in.outcomeOf(rep)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", in.spec.name, err)
	}

	in.spanMetrics(m, t, rep)
	in.kernelMetrics(m)

	evCfg := in.cfg
	evCfg.Events = true
	runtime.GC()
	start := time.Now()
	evRep, err := lyra.Run(evCfg, in.trace)
	if err != nil {
		return err
	}
	evMS := ms(time.Since(start))
	if d := reportDigest(evRep); d != ref.digest {
		return fmt.Errorf("%s: digest with events on %s differs from %s", in.spec.name, d, ref.digest)
	}
	m.set("obs.events.count", float64(bytes.Count(evRep.Events, []byte{'\n'})))
	m.set("obs.events.mb", float64(len(evRep.Events))/1e6)
	m.set("obs.events.overhead_pct", 100*(evMS/plainMS-1))
	conflicts, retries, err := arbiterConflicts(evRep.Events)
	if err != nil {
		return err
	}
	m.set("arbiter.conflicts", float64(conflicts))
	m.set("arbiter.retries", float64(retries))

	return writeTrace(t.col, filepath.Join(outDir, in.spec.name+".trace.json"))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceGenMetrics times one synthesis of the workload's base trace.
func traceGenMetrics(m metricSet, cfg lyra.TraceConfig) {
	start := time.Now()
	tr := lyra.GenerateTrace(cfg)
	m.set("trace.Generate.ms", ms(time.Since(start)))
	m.set("trace.Generate.jobs", float64(len(tr.Jobs)))
}

// spanMetrics reduces the last traced repetition's spans and counters.
func (in *simInput) spanMetrics(m metricSet, t *tracer, rep *lyra.Report) {
	wallNS := float64(t.simNS)

	var all []float64
	var busy, maxBusy int64
	var ivals [][2]int64
	for _, l := range t.sched {
		all = append(all, l.us()...)
		b := l.busyNS()
		busy += b
		if b > maxBusy {
			maxBusy = b
		}
		for i, s := range l.starts {
			ivals = append(ivals, [2]int64{s, s + l.durs[i]})
		}
	}
	m.set("sched.Schedule.calls", float64(len(all)))
	m.set("sched.Schedule.busy_ms", float64(busy)/1e6)
	m.set("sched.Schedule.share", float64(busy)/wallNS)
	m.set("sched.Schedule.p50_us", quantile(all, 50))
	tv, tp := tail(all)
	m.set("sched.Schedule.tail_us", tv)
	m.set("sched.Schedule.tail_pct", tp)
	if busy > 0 {
		m.set("sched.Schedule.shard_imbalance", float64(maxBusy)/(float64(busy)/float64(len(t.sched))))
	}

	setLayer := func(prefix string, l *layer, withDist bool) int64 {
		b := l.busyNS()
		m.set(prefix+".calls", float64(len(l.durs)))
		m.set(prefix+".busy_ms", float64(b)/1e6)
		if withDist {
			us := l.us()
			m.set(prefix+".p50_us", quantile(us, 50))
			tv, _ := tail(us)
			m.set(prefix+".tail_us", tv)
		}
		return b
	}
	// The engine blocks on the orchestrator or the arbiter for their whole
	// call, and on the scheduler phase for as long as any shard is still
	// scheduling: the union of the shard intervals, not their sum.
	blocked := union(ivals)
	blocked += setLayer("orchestrator.Epoch", t.orch, true)
	blocked += setLayer("arbiter.Epoch", t.arbEpoch, true)
	blocked += setLayer("arbiter.Route", t.arbRoute, false)
	setLayer("inference.TargetOnLoan", t.target, false)
	setLayer("reclaim.Plan", t.plan.l, true)
	m.set("reclaim.Plan.servers_requested", float64(t.plan.requested))
	m.set("sim.engine.self_ms", (wallNS-float64(blocked))/1e6)

	res := rep.Raw
	m.set("sim.epochs", float64(res.SchedEpochs))
	m.set("sim.epochs_skipped", float64(res.SkippedSchedEpochs))
	if res.SchedEpochs > 0 {
		// Every shard scheduler can skip every epoch on its own.
		m.set("sim.skip_ratio", float64(res.SkippedSchedEpochs)/float64(res.SchedEpochs*int64(len(t.sched))))
		m.set("sim.ns_per_epoch", wallNS/float64(res.SchedEpochs))
	}
	m.set("sim.scaling_ops", float64(res.ScalingOps))
	m.set("sim.preemptions", float64(res.Preemptions))
	m.set("sim.preempt_ratio", rep.PreemptionRatio)
	m.set("sim.queue_p99_s", rep.Queue.P99)
	m.set("sim.reclaim_ops", float64(res.ReclaimOps))
	m.set("sim.reclaimed_servers", float64(res.ReclaimedServers))
	m.set("fault.crashes", float64(res.Crashes))
	m.set("fault.recoveries", float64(res.Recoveries))
	m.set("fault.lost_gpu_s", res.LostCapacityGPUSec)

	foldProf(m, t.col)
	m.set("prof.attributed_pct", t.main.Report().Attributed())
}

// union is the total length covered by the intervals.
func union(ivals [][2]int64) int64 {
	sort.Slice(ivals, func(i, k int) bool { return ivals[i][0] < ivals[k][0] })
	var total, end int64
	for _, iv := range ivals {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// foldProf copies the program's own span tree into prof.<node>.self_ms: a
// node's self time is its total minus its children's, summed over every
// place the name occurs on every track. Names the run did not produce stay
// 0.
func foldProf(m metricSet, col *prof.Collector) {
	self := make(map[string]int64)
	var walk func(n *prof.Node)
	walk = func(n *prof.Node) {
		s := n.TotalNS
		for _, c := range n.Children {
			s -= c.TotalNS
			walk(c)
		}
		self[n.Name] += s
	}
	for _, tr := range col.Tracks() {
		for _, n := range tr.P.Report().Phases {
			walk(n)
		}
	}
	for _, n := range profNodes {
		m.set("prof."+n+".self_ms", float64(self[n])/1e6)
	}
}

// arbiterConflicts counts, from a recorded event stream, the loan proposals
// that lost the arbiter's optimistic commit (arb.conflict events) and the
// retry rounds they forced: per loan commit (time, shard), one round per
// conflicting round number seen.
func arbiterConflicts(events []byte) (conflicts, retries int, err error) {
	type key struct {
		t            float64
		shard, round int
	}
	rounds := make(map[key]bool)
	marker := []byte(`"kind":"arb.conflict"`)
	for rest := events; ; {
		i := bytes.Index(rest, marker)
		if i < 0 {
			break
		}
		lo := bytes.LastIndexByte(rest[:i], '\n') + 1
		hi := len(rest)
		if n := bytes.IndexByte(rest[i:], '\n'); n >= 0 {
			hi = i + n
		}
		var ev struct {
			T float64 `json:"t"`
			F struct {
				Shard int `json:"shard"`
				Round int `json:"round"`
			} `json:"f"`
		}
		if err := json.Unmarshal(rest[lo:hi], &ev); err != nil {
			return 0, 0, fmt.Errorf("benchmark: arb.conflict event: %w", err)
		}
		conflicts++
		rounds[key{ev.T, ev.F.Shard, ev.F.Round}] = true
		rest = rest[hi:]
	}
	return conflicts, len(rounds), nil
}

// writeTrace writes the collector's spans as Chrome trace-event JSON.
func writeTrace(col *prof.Collector, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
