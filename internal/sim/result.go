package sim

import (
	"math"

	"lyra/internal/job"
	"lyra/internal/metrics"
)

// Result collects everything the evaluation section reports about one run.
type Result struct {
	// Jobs holds the jobs the run was given, in their final state: the whole
	// trace, or in a capped lyra.Run only the Reachable prefix (the jobs past
	// the cap never arrive, and Config.TraceJobs still counts them).
	Jobs []*job.Job
	// Completed is the number of jobs that finished before the time cap.
	Completed int
	// RanOnLoan flags jobs that ever had a worker on an on-loan server
	// (Table 7 reports their queuing time and JCT separately).
	RanOnLoan map[int]bool

	// Preemptions counts job preemptions; PreemptionRatio is preemptions
	// over job submissions (Table 5 footnote 2).
	Preemptions     int
	PreemptionRatio float64
	// ScalingOps counts elastic scale-out/in operations (§7.4 discusses
	// Pollux's back-and-forth scaling).
	ScalingOps int

	// CollateralDamage is the average fraction of GPUs vacated in excess
	// of the reclaiming demand (§7.3).
	CollateralDamage float64
	// FlexSatisfiedShare is the share of reclaiming demand satisfied by
	// releasing flexible-worker server groups alone (§7.2 reports 53.5%
	// in Basic).
	FlexSatisfiedShare float64
	ReclaimOps         int
	ReclaimedServers   int

	// Crashes / Recoveries count injected server failures applied and
	// quarantined servers returned to service (zero without a fault.Plan).
	Crashes    int
	Recoveries int
	// LostCapacityGPUSec integrates quarantined capacity over the run:
	// GPU-seconds spent in PoolQuarantine, including the residual of
	// servers still down when the run ended — the lost-capacity-time
	// metric the domainsweep experiment reports.
	LostCapacityGPUSec float64

	// SchedEpochs counts scheduler epochs processed; SkippedSchedEpochs of
	// those were quiescent epochs the engine proved identical to the
	// previous pass and skipped (the dirty-set fast path — zero with a
	// scheduler that does not declare itself Memoryless, or when recording
	// events).
	SchedEpochs        int64
	SkippedSchedEpochs int64

	// Usage series sampled every metricsInterval (300 s).
	TrainUsage   *metrics.TimeSeries
	OverallUsage *metrics.TimeSeries
	OnLoanUsage  *metrics.TimeSeries

	// HourlyQueuedRatio is Figure 2: per hour, the fraction of
	// newly-submitted jobs that failed to get resources on the first try.
	HourlyQueuedRatio []float64

	// Prototype holds what only a prototype run (internal/testbed) counts;
	// nil on an engine run.
	Prototype *PrototypeStats

	done []*job.Job // the completed jobs of Jobs, in order, for the summaries
}

// PrototypeStats are the counters of the prototype runtime's own moving
// parts. Everything else a prototype run reports is the Result both
// substrates build with Summarize.
type PrototypeStats struct {
	// ContainersLaunched / ContainersKilled are the resource manager's
	// cumulative counts: every worker join is a launch, every scale-in,
	// preemption and crash casualty a kill (completions are releases).
	ContainersLaunched int64
	ContainersKilled   int64
	// LaunchFailures counts the ticks in which a job's injected container-
	// launch failure was absorbed by the retry path.
	LaunchFailures int
	// LyraServers and InferenceServers are the servers each scheduler
	// controls at exit: the training plus on-loan pools, and the inference
	// pool (§6: every server is under exactly one scheduler's control, or
	// quarantined and counted in neither).
	LyraServers      int
	InferenceServers int
}

// Summarize is the one place a run's job list and state counters become the
// dynamics a Result reports, for both substrates: the engine passes every
// shard's state, the prototype's tick loop (internal/testbed) its one.
// Lost capacity is LostCapacity, which both also call. Everything else in a
// Result — the on-loan job set, the usage series, the hourly queued ratio,
// skipped epochs — only the engine samples, and the Prototype block only
// the prototype; Summarize leaves them zero.
func Summarize(jobs []*job.Job, states ...*State) *Result {
	r := &Result{Jobs: jobs}
	for _, j := range jobs {
		if j.State == job.Completed {
			r.done = append(r.done, j)
		}
	}
	r.Completed = len(r.done)
	var demand, vacated, flexSat int
	for _, st := range states {
		r.Preemptions += st.Preemptions
		r.ScalingOps += st.ScalingOps
		r.ReclaimOps += st.ReclaimOps
		r.ReclaimedServers += st.ReclaimedSrv
		r.Crashes += st.Crashes
		r.Recoveries += st.Recoveries
		flexSat += st.FlexSatisfied
		demand += st.DemandGPUs
		vacated += st.VacatedGPUs
		if st.Epoch > r.SchedEpochs {
			r.SchedEpochs = st.Epoch // only training shards count epochs
		}
	}
	if n := len(jobs); n > 0 {
		r.PreemptionRatio = float64(r.Preemptions) / float64(n)
	}
	if demand > 0 {
		r.CollateralDamage = float64(vacated-demand) / float64(demand)
		if r.CollateralDamage < 0 {
			r.CollateralDamage = 0
		}
	}
	if r.ReclaimedServers > 0 {
		r.FlexSatisfiedShare = float64(flexSat) / float64(r.ReclaimedServers)
	}
	return r
}

// result assembles the run's Result: the shared summary plus what only the
// engine samples or reads off its job records. maxTime is the run's cap.
func (e *Engine) result(maxTime float64) *Result {
	r := Summarize(e.jobs, e.sh.States...)
	if e.total > len(e.jobs) {
		r.PreemptionRatio = float64(r.Preemptions) / float64(e.total)
	}
	r.RanOnLoan = e.ranOnLoan
	r.SkippedSchedEpochs = e.skippedEpochs
	r.LostCapacityGPUSec = LostCapacity(e.lostGPUSec, e.sh.States...)
	r.TrainUsage = e.trainUsage
	r.OverallUsage = e.overallUsage
	r.OnLoanUsage = e.onLoanUsage
	r.HourlyQueuedRatio = e.hourlyQueuedRatio(maxTime)
	return r
}

// hourlyQueuedRatio reads Figure 2 off the job records: per arrival hour,
// the share of the jobs that arrived by maxTime that missed their first
// scheduling attempt. Epochs fall on multiples of SchedInterval from 0, and
// an arrival precedes a same-instant epoch, so a job's first attempt is the
// epoch at or after its arrival. It missed it if it started later, or never
// started and the run reached that epoch.
func (e *Engine) hourlyQueuedRatio(maxTime float64) []float64 {
	hours := int(e.horizon/3600) + 1
	arrived := make([]int, hours)
	ratio := make([]float64, hours)
	si := e.cfg.SchedInterval
	for _, j := range Reachable(e.jobs, maxTime) {
		hour := int(j.Arrival / 3600)
		if hour >= hours {
			continue
		}
		arrived[hour]++
		first := (j.Arrival + si - 1) / si * si
		if j.Started && j.StartTime > first || !j.Started && float64(first) <= maxTime {
			ratio[hour]++
		}
	}
	for h, n := range arrived {
		if n > 0 {
			ratio[h] /= float64(n)
		}
	}
	return ratio
}

// QueuingSummary summarizes queuing times of completed jobs in seconds.
func (r *Result) QueuingSummary() metrics.Summary {
	return r.summaryOf(nil, func(j *job.Job) float64 { return float64(j.QueueTime) })
}

// JCTSummary summarizes job completion times of completed jobs in seconds.
func (r *Result) JCTSummary() metrics.Summary {
	return r.summaryOf(nil, func(j *job.Job) float64 { return float64(j.JCT()) })
}

// OnLoanQueuingSummary and OnLoanJCTSummary cover only jobs that ran on
// on-loan servers (Table 7).
func (r *Result) OnLoanQueuingSummary() metrics.Summary {
	return r.summaryOf(r.onLoanFilter(), func(j *job.Job) float64 { return float64(j.QueueTime) })
}

// OnLoanJCTSummary summarizes JCT for jobs that ran on on-loan servers.
func (r *Result) OnLoanJCTSummary() metrics.Summary {
	return r.summaryOf(r.onLoanFilter(), func(j *job.Job) float64 { return float64(j.JCT()) })
}

func (r *Result) onLoanFilter() func(*job.Job) bool {
	return func(j *job.Job) bool { return r.RanOnLoan[j.ID] }
}

func (r *Result) summaryOf(filter func(*job.Job) bool, metric func(*job.Job) float64) metrics.Summary {
	xs := make([]float64, 0, len(r.done))
	for _, j := range r.done {
		if filter == nil || filter(j) {
			xs = append(xs, metric(j))
		}
	}
	return metrics.Summarize(xs)
}

// MeanTrainUsage is the average training-cluster GPU usage ("Training"
// column of Table 5).
func (r *Result) MeanTrainUsage() float64 { return r.TrainUsage.Mean() }

// MeanOverallUsage is the combined training+inference usage ("Overall"
// column of Table 5).
func (r *Result) MeanOverallUsage() float64 { return r.OverallUsage.Mean() }

// MeanOnLoanUsage averages the on-loan server usage over samples where any
// server was on loan (Figure 9).
func (r *Result) MeanOnLoanUsage() float64 {
	if r.OnLoanUsage == nil {
		return 0
	}
	sum, n := 0.0, 0
	for _, v := range r.OnLoanUsage.Values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
