// Package experiments regenerates every table and figure of Lyra's
// evaluation (§7). Each experiment is a function from Params to one or more
// Tables; cmd/lyra-bench prints them and the repository-root benchmarks
// wrap them as testing.B targets. Figures are emitted as tables of series
// (one row per x-value, one column per scheme), which is what a plotting
// script would consume.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lyra"
	"lyra/internal/runner"
)

// Params scales an experiment run. Full is the paper's production scale;
// Small is a 1/8-cluster, 4-day configuration for benchmarks and smoke
// runs. Ratios and orderings are stable across scales; absolute seconds are
// not.
type Params struct {
	Days             int
	TrainingServers  int
	InferenceServers int
	LoadFactor       float64
	Seed             int64
	// Audit turns on the invariant audit layer for every simulation and
	// testbed run of the experiment (tests set it; the headline harness
	// leaves it off so published numbers come from the unchanged hot
	// path — they are identical either way, see lyra.Config.Audit).
	Audit bool
	// Pool runs and memoizes the experiment's simulations. nil uses a
	// shared package-level pool sized to GOMAXPROCS; cmd/lyra-bench and
	// cmd/lyra-sim install one sized by their -parallel flag. Sharing one
	// pool across experiments is what makes a registry run execute each
	// distinct simulation once, however many tables reference it.
	Pool *runner.Pool `json:"-"`
}

// Full returns the paper-scale parameters (§7.1: 443 8-GPU training
// servers, 520 8-GPU inference servers, 15 days).
func Full() Params {
	return Params{Days: 15, TrainingServers: 443, InferenceServers: 520, LoadFactor: 0.83, Seed: 1}
}

// Small returns a 1/8-scale configuration that keeps every mechanism
// exercised while running each simulation in a few seconds.
func Small() Params {
	return Params{Days: 4, TrainingServers: 56, InferenceServers: 64, LoadFactor: 0.83, Seed: 1}
}

// ClusterConfig returns the cluster sizing for these parameters.
func (p Params) ClusterConfig() lyra.ClusterConfig {
	return lyra.ClusterConfig{TrainingServers: p.TrainingServers, InferenceServers: p.InferenceServers}
}

// TraceConfig returns the trace-generation configuration.
func (p Params) TraceConfig() lyra.TraceConfig {
	cfg := lyra.DefaultTraceConfig(p.Seed)
	cfg.Days = p.Days
	cfg.TrainingGPUs = p.TrainingServers * 8
	cfg.LoadFactor = p.LoadFactor
	return cfg
}

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "table5", "fig10"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one or more related tables/figures.
type Experiment struct {
	Name string
	What string // which paper artifact it regenerates
	Run  func(Params) []*Table
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: inference cluster GPU utilization over one week", Fig1},
		{"fig2", "Figure 2: hourly queuing-job ratio in the training cluster", Fig2},
		{"fig3", "Figure 3: elastic training throughput scaling", Fig3},
		{"table1", "Table 1 / Figure 5: server preemption cost definitions", Table1},
		{"table23", "Tables 2-3: two-job elastic allocation strategies", Table23},
		{"table4", "Table 4 / Figure 6: SJF counter-example and MCKP items", Table4},
		{"calibration", "§7.2 fidelity check: simulator vs prototype on one trace", Calibration},
		{"table5", "Table 5: simulation results across scenarios and schemes", Table5},
		{"fig7", "Figure 7: hourly combined cluster usage over 48 hours", Fig7},
		{"fig8", "Figure 8: gains under imperfect (non-linear) scaling", Fig8},
		{"table6", "Table 6: placement without special treatment of elastic jobs", Table6},
		{"table7", "Table 7: queuing/JCT of jobs running on on-loan servers", Table7},
		{"fig9", "Figure 9: daily average usage of on-loan servers", Fig9},
		{"fig10", "Figure 10: preemption ratio and collateral damage by reclaiming scheme", Fig10},
		{"reclaimopt", "§7.3: Lyra's reclaiming vs the exhaustive optimum", ReclaimOpt},
		{"fig11", "Figure 11: sweep of heterogeneous-job fraction", Fig11},
		{"fig12", "Figure 12: ten bootstrapped 10-day traces", Fig12},
		{"fig13", "Figure 13: sweep of checkpointing fraction", Fig13},
		{"table8", "Table 8: queuing/JCT percentiles per scheduling scheme", Table8},
		{"table9", "Table 9: sensitivity to wrong running-time predictions", Table9},
		{"fig1415", "Figures 14-15: sweeps of the elastic-job fraction", Fig14_15},
		{"fig16", "Figure 16: non-linear scaling across elastic-job fractions", Fig16},
		{"table10", "Table 10: testbed-prototype results", Table10},
		{"fig17", "Figure 17: testbed preemption and collateral damage", Fig17},
		{"ablation", "Ablations: proactive reclaiming, info-agnostic order, MCKP knobs", Ablations},
		{"faultsweep", "Robustness: queuing/JCT degradation under injected server failures", FaultSweep},
		{"domainsweep", "Robustness: correlated rack outages with degraded mode on/off", DomainSweep},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// defaultPool backs experiments run without an explicit pool (tests, direct
// library use). It is shared deliberately: repeated calls within one process
// reuse earlier simulations.
var defaultPool = runner.New(0)

func (p Params) pool() *runner.Pool {
	if p.Pool != nil {
		return p.Pool
	}
	return defaultPool
}

// spec declares a simulation of cfg on this parameter set's trace. Scenario
// and trace-mutation knobs chain on via the runner.Spec With* helpers.
func (p Params) spec(cfg lyra.Config) runner.Spec {
	return runner.NewSpec(cfg, p.TraceConfig())
}

// mustSim executes (or recalls) one declared simulation and panics on
// errors, which are programming bugs in this package.
func mustSim(p Params, s runner.Spec) *lyra.Report {
	rep, err := p.pool().Sim(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rep
}

// mustSimAll submits a whole batch at once: distinct specs fan out over the
// pool's workers, duplicates collapse onto one simulation.
func mustSimAll(p Params, specs []runner.Spec) []*lyra.Report {
	reps, err := p.pool().SimAll(specs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return reps
}

// Scheme configuration builders shared across experiments. Each takes the
// cluster sizing from p; scenario adaptation and trace mutations are
// declared on the runner.Spec.

func baselineCfg(p Params) lyra.Config {
	cfg := lyra.BaselineConfig()
	cfg.Cluster = p.ClusterConfig()
	cfg.Seed = p.Seed
	cfg.Audit = p.Audit
	return cfg
}

func lyraCfg(p Params) lyra.Config {
	cfg := lyra.DefaultConfig()
	cfg.Cluster = p.ClusterConfig()
	cfg.Seed = p.Seed
	cfg.Audit = p.Audit
	return cfg
}

// loanOnlyCfg is Lyra with elastic scaling disabled (§7.3's deep dive) and
// the given reclaiming policy.
func loanOnlyCfg(p Params, reclaim lyra.ReclaimKind) lyra.Config {
	cfg := lyraCfg(p)
	cfg.Elastic = false
	cfg.Reclaim = reclaim
	return cfg
}

// opportunisticCfg queues fungible jobs to the inference cluster (§7.1).
func opportunisticCfg(p Params) lyra.Config {
	cfg := loanOnlyCfg(p, lyra.ReclaimRandom)
	cfg.Opportunistic = true
	return cfg
}

// elasticOnlyCfg disables loaning and selects the scheduler (§7.4's deep
// dive). Pollux and tuned variants carry the tuning throughput bonus.
func elasticOnlyCfg(p Params, sched lyra.SchedulerKind) lyra.Config {
	cfg := lyraCfg(p)
	cfg.Loaning = false
	cfg.Scheduler = sched
	if sched == lyra.SchedPollux {
		cfg.Scaling.TunedGain = tunedGain
	}
	return cfg
}

// tunedGain is the throughput bonus of the hyperparameter-tuning job agent
// (Lyra+TunedJobs and Pollux, §7.4).
const tunedGain = 0.08

func lyraTunedCfg(p Params) lyra.Config {
	cfg := elasticOnlyCfg(p, lyra.SchedLyra)
	cfg.Tuned = true
	cfg.Scaling.TunedGain = tunedGain
	return cfg
}

// fmtS renders seconds the way the paper's tables do.
func fmtS(v float64) string { return fmt.Sprintf("%.0f", v) }

// fmtF renders a ratio or fraction with two decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct renders a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// sortedKeys returns map keys in ascending order (used for stable output).
func sortedKeys[K ~int | ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
