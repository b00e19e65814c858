// Package trace synthesizes production-like training job traces. The paper
// evaluates Lyra on a proprietary 15-day trace of 50,390 jobs from a
// 3,544-GPU training cluster; we cannot ship that trace, so this package
// generates a deterministic synthetic equivalent calibrated to every
// statistic the paper publishes:
//
//   - runtimes from minutes to days (log-normal),
//   - diurnal, weekday-heavy submission pattern (Figure 2),
//   - 21% fungible jobs (§2.1),
//   - ~5% elastic jobs holding ~36% of training resources with a mean
//     runtime around 14 hours (§2.2),
//   - offered load high enough that a FIFO baseline queues jobs for
//     thousands of seconds on average (§2.1).
//
// The generator is fully deterministic given a seed, so every scheme in the
// evaluation replays the identical workload. It also provides the
// bootstrap resampling used for the reproducibility study (Figure 12) and a
// scaled-down testbed workload (§7.5).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lyra/internal/job"
)

// Config parameterizes trace synthesis. Zero values fall back to the
// paper's production calibration.
type Config struct {
	Seed int64
	Days int // trace length, default 15

	// TrainingGPUs is the capacity the offered load is calibrated
	// against; default 3544.
	TrainingGPUs int

	// LoadFactor is offered GPU-time divided by training-cluster GPU-time
	// capacity. The default 0.83 drives a FIFO scheduler to ~80%
	// utilization with multi-thousand-second average queuing and a
	// heavy-tailed wait distribution, matching §2.1.
	LoadFactor float64

	FracFungible   float64 // fraction of jobs runnable on any GPU type, default 0.21
	FracElastic    float64 // fraction of jobs that are elastic, default 0.05
	FracHetero     float64 // fraction of jobs capable of heterogeneous GPUs, default 0
	FracCheckpoint float64 // fraction of jobs with checkpointing, default 0

	// MaxJobGPUs caps a job's maximum demand; 0 means no cap. The testbed
	// workload (§7.5) excludes jobs demanding more than half the cluster.
	MaxJobGPUs int
}

// Default returns the production-scale configuration of §7.1.
func Default(seed int64) Config {
	return Config{
		Seed:         seed,
		Days:         15,
		TrainingGPUs: 3544,
		LoadFactor:   0.83,
		FracFungible: 0.21,
		FracElastic:  0.05,
	}
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = 15
	}
	if c.TrainingGPUs == 0 {
		c.TrainingGPUs = 3544
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 0.83
	}
	return c
}

// Trace is a job submission trace.
type Trace struct {
	Jobs    []*job.Job // sorted by arrival time
	Horizon int64      // seconds covered
	Config  Config
}

// Inelastic job GPU-demand distribution (total GPUs): dominated by small
// jobs as in production DL clusters, with a heavy tail of large gang jobs.
// The tail is what produces the paper's queuing shape — median queuing of
// ~1 minute against a mean over 3,000 s (Table 5 row 1): small jobs slip
// into gaps while big gangs wait for enough simultaneous free GPUs.
var (
	inelasticGPUs  = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	inelasticProbs = []float64{0.40, 0.20, 0.14, 0.12, 0.07, 0.04, 0.02, 0.008, 0.002}
)

// Elastic jobs (§2.2): 2-GPU workers, base demand of 4–8 workers, scaling
// range 2–3x the base.
var (
	elasticMinWorkers = []int{4, 6, 8}
	elasticFactors    = []int{2, 3}
	elasticModels     = []job.Model{job.ResNet, job.VGG, job.BERT, job.GNMT}
)

// expectedGPUSeconds returns the analytic E[GPU-time] per job used to
// calibrate the arrival rate so that offered load hits cfg.LoadFactor. The
// duration means account for the [minDuration, maxDuration] clamping.
func expectedGPUSeconds(cfg Config) float64 {
	eInelGPUs := 0.0
	for i, g := range inelasticGPUs {
		eInelGPUs += float64(g) * inelasticProbs[i]
	}
	eInel := eInelGPUs * clampedLognormalMean(inelasticDurMedian, inelasticDurSigma)
	eMaxWorkers := 0.0
	for _, mw := range elasticMinWorkers {
		for _, f := range elasticFactors {
			eMaxWorkers += float64(mw * f)
		}
	}
	eMaxWorkers /= float64(len(elasticMinWorkers) * len(elasticFactors))
	eElas := eMaxWorkers * 2 * clampedLognormalMean(elasticDurMedian, elasticDurSigma)
	return (1-cfg.FracElastic)*eInel + cfg.FracElastic*eElas
}

// clampedLognormalMean is E[min(max(X, lo), hi)] for X ~ LogNormal with the
// given median and sigma — the exact mean of the clamped duration sampler.
func clampedLognormalMean(median, sigma float64) float64 {
	mu := math.Log(median)
	lo, hi := minDuration, maxDuration
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	a := (math.Log(lo) - mu) / sigma
	b := (math.Log(hi) - mu) / sigma
	mid := math.Exp(mu+sigma*sigma/2) * (phi(b-sigma) - phi(a-sigma))
	return lo*phi(a) + hi*(1-phi(b)) + mid
}

// Duration distributions (seconds). Durations are "runtime at maximum
// demand" and range from minutes to days after clamping.
const (
	inelasticDurMedian = 2400.0 // 40 minutes
	inelasticDurSigma  = 1.8
	elasticDurMedian   = 17000.0 // ~4.7 h at max demand => ~14 h at base
	elasticDurSigma    = 0.7
	minDuration        = 120.0
	maxDuration        = 5 * 86400.0
)

func sampleLognormal(rng *rand.Rand, median, sigma float64) float64 {
	d := median * math.Exp(rng.NormFloat64()*sigma)
	if d < minDuration {
		d = minDuration
	}
	if d > maxDuration {
		d = maxDuration
	}
	return d
}

// arrivalModulation returns the relative submission intensity at time t:
// heavily concentrated in working hours and on weekdays (Figure 2's hourly
// pattern). The amplitude is strong on purpose: daytime demand transiently
// exceeds the training cluster's capacity (hours with ~100% of submissions
// queuing in Figure 2) and the backlog drains overnight, which reproduces
// the paper's heavy-tailed queuing distribution. Day 0 is a Thursday.
func arrivalModulation(t int64) float64 {
	hour := float64(t%86400) / 3600
	m := 1 + 0.45*math.Cos(2*math.Pi*(hour-14)/24)
	day := int(t / 86400)
	weekday := (day + 4) % 7
	if weekday == 6 || weekday == 0 {
		m *= 0.65
	}
	return m
}

// Demand burstiness: production training demand "does not exhibit clear
// patterns for prediction" (§2.1) and queues entire hours of submissions
// (Figure 2). Two mechanisms reproduce that on top of the diurnal curve:
// surge windows (a few hours of 1.5-2.5x submission intensity, most days)
// and sweep batches (one submission fanning out into several sibling jobs,
// as hyperparameter sweeps do).
const (
	surgeProbPerDay = 0.7
	surgeMinHours   = 1
	surgeMaxHours   = 4
	surgeMinMult    = 1.3
	surgeMaxMult    = 1.8
	batchProb       = 0.06
	batchMinJobs    = 4
	batchMaxJobs    = 16
)

type surge struct {
	start, end int64
	mult       float64
}

func sampleSurges(rng *rand.Rand, days int) []surge {
	var out []surge
	for d := 0; d < days; d++ {
		if rng.Float64() >= surgeProbPerDay {
			continue
		}
		lenH := surgeMinHours + rng.Intn(surgeMaxHours-surgeMinHours+1)
		startH := rng.Intn(24 - lenH)
		out = append(out, surge{
			start: int64(d*86400 + startH*3600),
			end:   int64(d*86400 + (startH+lenH)*3600),
			mult:  surgeMinMult + rng.Float64()*(surgeMaxMult-surgeMinMult),
		})
	}
	return out
}

func surgeMult(surges []surge, t int64) float64 {
	for _, s := range surges {
		if t >= s.start && t < s.end {
			return s.mult
		}
	}
	return 1
}

// Generate synthesizes a trace from cfg. The result is deterministic in
// cfg.Seed.
func Generate(cfg Config) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := int64(cfg.Days) * 86400
	surges := sampleSurges(rng, cfg.Days)

	// Normalize the arrival rate so that offered GPU-time stays at
	// LoadFactor * capacity regardless of the sampled surges and the
	// batch fan-out: average the modulation numerically and account for
	// the expected batch size.
	modSum, modMax, samples := 0.0, 0.0, 0
	for t := int64(0); t < horizon; t += 300 {
		m := arrivalModulation(t) * surgeMult(surges, t)
		modSum += m
		if m > modMax {
			modMax = m
		}
		samples++
	}
	avgMod := modSum / float64(samples)
	batchFactor := 1 + batchProb*(float64(batchMinJobs+batchMaxJobs)/2-1)
	lambda := cfg.LoadFactor * float64(cfg.TrainingGPUs) /
		expectedGPUSeconds(cfg) / avgMod / batchFactor

	tr := &Trace{Horizon: horizon, Config: cfg}
	id := 0
	// Thinned non-homogeneous Poisson process: propose at the peak rate,
	// accept with probability rate(t)/peak.
	t := 0.0
	for {
		t += rng.ExpFloat64() / (lambda * modMax)
		at := int64(t)
		if at >= horizon {
			break
		}
		if rng.Float64()*modMax > arrivalModulation(at)*surgeMult(surges, at) {
			continue
		}
		if rng.Float64() < batchProb {
			// A sweep: several sibling jobs of the same shape submitted
			// within a few minutes.
			proto := sampleJob(rng, cfg, id, at)
			n := batchMinJobs + rng.Intn(batchMaxJobs-batchMinJobs+1)
			for b := 0; b < n; b++ {
				cl := proto.Clone()
				cl.ID = id
				tr.Jobs = append(tr.Jobs, cl)
				id++
			}
			continue
		}
		tr.Jobs = append(tr.Jobs, sampleJob(rng, cfg, id, at))
		id++
	}
	return tr
}

func sampleJob(rng *rand.Rand, cfg Config, id int, arrival int64) *job.Job {
	// A job can never demand more than the training cluster holds; the
	// heavy demand tail is re-capped when generating for small clusters.
	if cfg.MaxJobGPUs == 0 || cfg.MaxJobGPUs > cfg.TrainingGPUs {
		cfg.MaxJobGPUs = cfg.TrainingGPUs
	}
	var j *job.Job
	if rng.Float64() < cfg.FracElastic {
		minW := elasticMinWorkers[rng.Intn(len(elasticMinWorkers))]
		maxW := minW * elasticFactors[rng.Intn(len(elasticFactors))]
		if cfg.MaxJobGPUs > 0 {
			if cap := cfg.MaxJobGPUs / 2; cap >= 2 {
				if maxW > cap {
					maxW = cap
				}
				if minW > maxW/2 {
					minW = maxW / 2
				}
				if minW < 1 {
					minW = 1
				}
			} else {
				minW, maxW = 1, 2
			}
		}
		dur := sampleLognormal(rng, elasticDurMedian, elasticDurSigma)
		model := elasticModels[rng.Intn(len(elasticModels))]
		j = job.New(id, arrival, model, 2, minW, maxW, dur)
		j.Elastic = true
	} else {
		gpus := sampleCategorical(rng, inelasticGPUs, inelasticProbs)
		if cfg.MaxJobGPUs > 0 && gpus > cfg.MaxJobGPUs {
			gpus = cfg.MaxJobGPUs
		}
		gpw, workers := gpus, 1
		if gpus > 8 {
			gpw, workers = 8, gpus/8
		}
		dur := sampleLognormal(rng, inelasticDurMedian, inelasticDurSigma)
		j = job.New(id, arrival, job.Generic, gpw, workers, workers, dur)
	}
	// Fungible (GPU-type-agnostic) jobs are the small ones: a job that fits
	// a 16 GB T4 without heroics is small, and large-model jobs request
	// specific GPUs. The acceptance probability is scaled so the overall
	// fungible fraction still hits cfg.FracFungible.
	if j.MaxGPUs() <= fungibleMaxGPUs {
		j.Fungible = rng.Float64() < cfg.FracFungible/smallJobFraction
	}
	j.Hetero = rng.Float64() < cfg.FracHetero
	j.Checkpoint = rng.Float64() < cfg.FracCheckpoint
	return j
}

// fungibleMaxGPUs caps the demand of GPU-type-agnostic jobs;
// smallJobFraction is the probability mass of inelastic jobs under that cap
// (elastic jobs exceed it), used to keep the overall fungible fraction at
// the configured value.
const (
	fungibleMaxGPUs  = 8
	smallJobFraction = 0.86
)

func sampleCategorical(rng *rand.Rand, vals []int, probs []float64) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

// Clone deep-copies the trace so that one synthesized workload can be
// replayed under several schemes without interference: each run clones the
// jobs it can reach once, then mixes and runs its copy. The copies live in
// one slab, so a clone of an unrun trace is three allocations at any length.
func (tr *Trace) Clone() *Trace {
	cp := &Trace{Horizon: tr.Horizon, Config: tr.Config}
	cp.Jobs = make([]*job.Job, len(tr.Jobs))
	slab := make([]job.Job, len(tr.Jobs))
	for i, j := range tr.Jobs {
		j.CloneInto(&slab[i])
		cp.Jobs[i] = &slab[i]
	}
	return cp
}

// Stats summarizes a trace for calibration checks.
type Stats struct {
	NumJobs          int
	FracFungible     float64
	FracElastic      float64
	FracHetero       float64
	FracCheckpoint   float64
	ElasticWorkShare float64 // share of total work held by elastic jobs
	MeanDuration     float64 // runtime at max demand, seconds
	MaxGPUDemand     int
	OfferedLoad      float64 // total work / (TrainingGPUs * horizon)
}

// ComputeStats scans the trace.
func (tr *Trace) ComputeStats() Stats {
	var s Stats
	s.NumJobs = len(tr.Jobs)
	totalWork, elasticWork, totalDur := 0.0, 0.0, 0.0
	for _, j := range tr.Jobs {
		totalWork += j.Work
		if j.Elastic {
			s.FracElastic++
			elasticWork += j.Work
		}
		if j.Fungible {
			s.FracFungible++
		}
		if j.Hetero {
			s.FracHetero++
		}
		if j.Checkpoint {
			s.FracCheckpoint++
		}
		totalDur += j.MinRuntime(job.Linear)
		if g := j.MaxGPUs(); g > s.MaxGPUDemand {
			s.MaxGPUDemand = g
		}
	}
	if s.NumJobs > 0 {
		n := float64(s.NumJobs)
		s.FracFungible /= n
		s.FracElastic /= n
		s.FracHetero /= n
		s.FracCheckpoint /= n
		s.MeanDuration = totalDur / n
	}
	if totalWork > 0 {
		s.ElasticWorkShare = elasticWork / totalWork
	}
	cfg := tr.Config.withDefaults()
	s.OfferedLoad = totalWork / (float64(cfg.TrainingGPUs) * float64(tr.Horizon))
	return s
}

// Bootstrap composes count traces of days length each by resampling whole
// days of tr with replacement, the technique behind Figure 12. Job arrivals
// are shifted so each sampled day occupies its slot; IDs are renumbered.
func (tr *Trace) Bootstrap(days, count int, seed int64) []*Trace {
	rng := rand.New(rand.NewSource(seed))
	srcDays := int(tr.Horizon / 86400)
	// Pre-bucket jobs by arrival day.
	byDay := make([][]*job.Job, srcDays)
	for _, j := range tr.Jobs {
		d := int(j.Arrival / 86400)
		if d >= srcDays {
			d = srcDays - 1
		}
		byDay[d] = append(byDay[d], j)
	}
	out := make([]*Trace, count)
	for c := 0; c < count; c++ {
		nt := &Trace{Horizon: int64(days) * 86400, Config: tr.Config}
		id := 0
		for slot := 0; slot < days; slot++ {
			src := rng.Intn(srcDays)
			shift := int64(slot-src) * 86400
			for _, j := range byDay[src] {
				cp := j.Clone()
				cp.ID = id
				cp.Arrival += shift
				cp.LastEnqueue = cp.Arrival
				nt.Jobs = append(nt.Jobs, cp)
				id++
			}
		}
		sort.Slice(nt.Jobs, func(i, k int) bool {
			if nt.Jobs[i].Arrival != nt.Jobs[k].Arrival {
				return nt.Jobs[i].Arrival < nt.Jobs[k].Arrival
			}
			return nt.Jobs[i].ID < nt.Jobs[k].ID
		})
		out[c] = nt
	}
	return out
}

// Validate checks every job in the trace and arrival ordering.
func (tr *Trace) Validate() error {
	prev := int64(-1)
	for _, j := range tr.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.Arrival < prev {
			return fmt.Errorf("trace: job %d arrives at %d before previous job at %d", j.ID, j.Arrival, prev)
		}
		if j.Arrival >= tr.Horizon {
			return fmt.Errorf("trace: job %d arrives at %d beyond horizon %d", j.ID, j.Arrival, tr.Horizon)
		}
		prev = j.Arrival
	}
	return nil
}
