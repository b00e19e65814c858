// Package job models deep-learning training jobs as Lyra's scheduler sees
// them: a demand in workers (fixed for inelastic jobs, a [min,max] range for
// elastic ones), a total amount of work, and the capability flags from §7.1
// (fungible across GPU types, elastic, heterogeneous-capable,
// checkpointing). It also provides the throughput model used throughout the
// paper: linear scaling within the elastic range by default (§5), an
// imperfect-scaling variant (§7.2), and a heterogeneous-training penalty
// (§7.1, Advanced scenario).
package job

import (
	"fmt"

	"lyra/internal/cluster"
)

// Model identifies the model family of a training job. The four named
// families are the ones §2.2 profiles for elastic scaling (Figure 3).
type Model uint8

// Model families.
const (
	Generic Model = iota
	ResNet
	VGG
	BERT
	GNMT
	numModels
)

func (m Model) String() string {
	switch m {
	case Generic:
		return "Generic"
	case ResNet:
		return "ResNet-50"
	case VGG:
		return "VGG16"
	case BERT:
		return "BERT"
	case GNMT:
		return "GNMT-16"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// State is the lifecycle state of a job.
type State uint8

// Job states. A preempted job transitions back to Pending (§3: the scheduler
// "puts them back into the job queues").
const (
	Pending State = iota
	Running
	Completed
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Worker is one placed worker of a running job.
type Worker struct {
	Server   int
	GPU      cluster.GPUType
	GPUs     int  // GPUs this worker occupies (place.WorkerGPUs: twice GPUsPerWorker on a T4)
	Flexible bool // part of the elastic surplus beyond MinWorkers
}

// ScalingModel parameterizes the throughput model.
type ScalingModel struct {
	// PerWorkerLoss is the fraction of nominal throughput lost by every
	// worker beyond the first (§7.2 "we add a 20% loss to the throughput
	// brought by this worker"). 0 means the linear scaling assumed in §5.
	PerWorkerLoss float64
	// HeteroPenalty caps the throughput of a job running on mixed GPU
	// types relative to ideal (§7.1 Advanced: "at most 70% of the ideal
	// results"). 1 disables the penalty (Ideal scenario).
	HeteroPenalty float64
	// TunedGain is the relative throughput bonus a hyperparameter-tuned
	// job (Lyra+TunedJobs / Pollux job agent, §7.4) earns while running
	// beyond its base demand: the agent re-tunes batch size and learning
	// rate on every allocation change, recovering statistical efficiency
	// the untuned job leaves on the table. 0 disables tuning effects.
	TunedGain float64
}

// Linear is the default scaling model of §5: throughput proportional to
// allocated resources, no heterogeneity penalty.
var Linear = ScalingModel{PerWorkerLoss: 0, HeteroPenalty: 1}

// Imperfect is the non-linear scaling model evaluated in §7.2 and Figure 16.
var Imperfect = ScalingModel{PerWorkerLoss: 0.2, HeteroPenalty: 1}

// Job is a training job. Exported demand fields are immutable after
// creation; runtime state is mutated by the simulator via the methods below.
type Job struct {
	ID      int
	Arrival int64 // submission time, seconds since trace start
	Model   Model

	GPUsPerWorker int
	MinWorkers    int // base demand; == MaxWorkers for inelastic jobs
	MaxWorkers    int

	// Work is the job size in GPU-seconds at reference speed (V100=1.0).
	// Runtime with an allocation = Work / Throughput(allocation).
	Work float64

	Fungible   bool // can run on any GPU type (different runs)
	Elastic    bool // worker count adjustable on the fly in [Min,Max]
	Hetero     bool // can mix GPU types at runtime (experimental, §6)
	Checkpoint bool // retains progress across preemption
	Tuned      bool // hyperparameter-tuning job agent attached (§7.4)

	// Runtime state, owned by the simulator.
	State     State
	Remaining float64 // work left, GPU-seconds at reference speed
	// OverheadLeft is wall-clock seconds of restart overhead (checkpoint
	// load, container relaunch) to pay before training progresses again
	// after a preemption.
	OverheadLeft float64
	Workers      []Worker
	Started      bool
	StartTime    int64 // first dispatch
	LastEnqueue  int64 // last time the job entered the queue
	QueueTime    int64 // accumulated time spent Pending
	FinishTime   int64
	Preemptions  int

	// EstimatedRuntime is the (possibly erroneous, Table 9) runtime
	// estimate the scheduler sorts on; seconds at max demand.
	EstimatedRuntime float64

	// SlowFactor degrades the job's throughput to model a straggler
	// (injected by a fault.Plan). Values in (0, 1) multiply Throughput;
	// 0 and 1 both mean "not a straggler". The scheduler does not see it —
	// stragglers are discovered, not declared, matching real clusters.
	SlowFactor float64
}

// New returns a pending job with Remaining = Work. durationAtMax is the
// runtime in seconds when the job runs with MaxWorkers of V100 GPUs under
// linear scaling; Work is derived from it.
func New(id int, arrival int64, model Model, gpusPerWorker, minWorkers, maxWorkers int, durationAtMax float64) *Job {
	j := &Job{
		ID:            id,
		Arrival:       arrival,
		Model:         model,
		GPUsPerWorker: gpusPerWorker,
		MinWorkers:    minWorkers,
		MaxWorkers:    maxWorkers,
		LastEnqueue:   arrival,
	}
	j.Work = durationAtMax * j.NominalThroughput(maxWorkers, cluster.V100, Linear)
	j.Remaining = j.Work
	j.EstimatedRuntime = durationAtMax
	return j
}

// Validate reports the first structural problem with the job's demand.
func (j *Job) Validate() error {
	switch {
	case j.GPUsPerWorker <= 0:
		return fmt.Errorf("job %d: %d GPUs per worker", j.ID, j.GPUsPerWorker)
	case j.MinWorkers <= 0:
		return fmt.Errorf("job %d: %d min workers", j.ID, j.MinWorkers)
	case j.MaxWorkers < j.MinWorkers:
		return fmt.Errorf("job %d: max workers %d < min workers %d", j.ID, j.MaxWorkers, j.MinWorkers)
	case !j.Elastic && j.MaxWorkers != j.MinWorkers:
		return fmt.Errorf("job %d: inelastic but max %d != min %d", j.ID, j.MaxWorkers, j.MinWorkers)
	case j.Work <= 0:
		return fmt.Errorf("job %d: work %v", j.ID, j.Work)
	}
	return nil
}

// BaseGPUs returns the GPUs of the base (inelastic) demand.
func (j *Job) BaseGPUs() int { return j.MinWorkers * j.GPUsPerWorker }

// MaxGPUs returns the GPUs of the maximum demand.
func (j *Job) MaxGPUs() int { return j.MaxWorkers * j.GPUsPerWorker }

// FlexRange returns the number of optional workers (0 for inelastic jobs).
func (j *Job) FlexRange() int { return j.MaxWorkers - j.MinWorkers }

// workerEfficiency returns the scaling efficiency of the i-th worker
// (0-based) under sm.
func workerEfficiency(i int, sm ScalingModel) float64 {
	if i == 0 || sm.PerWorkerLoss == 0 {
		return 1
	}
	return 1 - sm.PerWorkerLoss
}

// NominalThroughput returns the throughput of w workers all on GPU type g,
// in reference-GPU-seconds of work retired per second.
func (j *Job) NominalThroughput(w int, g cluster.GPUType, sm ScalingModel) float64 {
	t := 0.0
	per := float64(j.GPUsPerWorker) * g.Speed()
	for i := 0; i < w; i++ {
		t += per * workerEfficiency(i, sm)
	}
	return t
}

// Throughput returns the current throughput given the job's placed workers.
// Workers on slower GPUs contribute proportionally less; a mix of GPU types
// additionally incurs sm.HeteroPenalty on the whole job (§7.1).
func (j *Job) Throughput(sm ScalingModel) float64 {
	if len(j.Workers) == 0 {
		return 0
	}
	t := 0.0
	first := j.Workers[0].GPU
	mixed := false
	for i, w := range j.Workers {
		t += float64(w.GPUs) * w.GPU.Speed() * workerEfficiency(i, sm)
		if w.GPU != first {
			mixed = true
		}
	}
	if mixed && sm.HeteroPenalty < 1 {
		t *= sm.HeteroPenalty
	}
	if j.Tuned && sm.TunedGain > 0 && len(j.Workers) > j.MinWorkers {
		t *= 1 + sm.TunedGain
	}
	if j.SlowFactor > 0 && j.SlowFactor < 1 {
		t *= j.SlowFactor
	}
	return t
}

// MinRuntime returns the running time when allocated MaxWorkers V100
// workers — the "min. running time" of Tables 2 and 4.
func (j *Job) MinRuntime(sm ScalingModel) float64 {
	return j.Work / j.NominalThroughput(j.MaxWorkers, cluster.V100, sm)
}

// RuntimeAt returns the running time of the whole job when continuously
// allocated w V100 workers.
func (j *Job) RuntimeAt(w int, sm ScalingModel) float64 {
	return j.Work / j.NominalThroughput(w, cluster.V100, sm)
}

// RemainingRuntime returns the time to completion at the current placement
// (including any pending restart overhead), or ok=false when the job has no
// workers.
func (j *Job) RemainingRuntime(sm ScalingModel) (float64, bool) {
	thr := j.Throughput(sm)
	if thr <= 0 {
		return 0, false
	}
	return j.OverheadLeft + j.Remaining/thr, true
}

// NumWorkers returns the number of placed workers.
func (j *Job) NumWorkers() int { return len(j.Workers) }

// FlexibleWorkers returns the number of placed flexible workers without
// looking at them: the workers beyond the MinWorkers base gang, which stays
// whole while a job runs (the invariant auditor's lifecycle rule holds
// every running job to CountFlexible); 0 for a job holding none.
func (j *Job) FlexibleWorkers() int { return max(0, len(j.Workers)-j.MinWorkers) }

// CountFlexible counts the placed workers flagged Flexible: the recount
// FlexibleWorkers is audited against.
func (j *Job) CountFlexible() int {
	n := 0
	for _, w := range j.Workers {
		if w.Flexible {
			n++
		}
	}
	return n
}

// GPUsHeld returns the total GPUs currently held.
func (j *Job) GPUsHeld() int {
	n := 0
	for _, w := range j.Workers {
		n += w.GPUs
	}
	return n
}

// Advance retires dt seconds of progress at the current throughput and
// returns the work retired. It never drives Remaining below zero.
func (j *Job) Advance(dt float64, sm ScalingModel) float64 {
	done := j.Throughput(sm) * dt
	if done > j.Remaining {
		done = j.Remaining
	}
	j.Remaining -= done
	return done
}

// ResetProgress discards all training progress, as happens when a job
// without checkpointing is preempted (§4).
func (j *Job) ResetProgress() { j.Remaining = j.Work }

// JCT returns the job completion time (completion − arrival). It is only
// meaningful for completed jobs.
func (j *Job) JCT() int64 { return j.FinishTime - j.Arrival }

// Clone returns a deep copy, used when replaying one trace under several
// schemes.
func (j *Job) Clone() *Job {
	c := new(Job)
	j.CloneInto(c)
	return c
}

// CloneInto deep-copies j over dst, for a caller that owns the storage.
func (j *Job) CloneInto(dst *Job) {
	*dst = *j
	dst.Workers = append([]Worker(nil), j.Workers...)
}
