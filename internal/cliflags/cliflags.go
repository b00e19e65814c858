// Package cliflags is the one flag-parsing layer shared by the lyra
// commands (lyra-sim, lyra-bench, lyra-testbed, lyra-events, lyra-matrix).
// Before it existed each command declared its own -scheme / -faults /
// -events / -audit flags with subtly different parsing — scheme lists were
// split in one command and not another, the fault-seed fallback chain was
// duplicated, violation errors rendered differently. Each command now
// registers the subset of standard flags it needs and gets identical
// syntax, help text and error rendering.
package cliflags

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lyra"
	"lyra/internal/obs"
	"lyra/internal/prof"
)

// FlagSet is the subset of *flag.FlagSet the group needs; the standard
// flag.CommandLine satisfies it.
type FlagSet interface {
	StringVar(p *string, name, value, usage string)
	Int64Var(p *int64, name string, value int64, usage string)
	IntVar(p *int, name string, value int, usage string)
	BoolVar(p *bool, name string, value bool, usage string)
}

// Group holds the parsed values of the standard flags a command registered.
type Group struct {
	cmd string
	fs  FlagSet

	Scheme    string
	Reclaim   string
	Seed      int64
	Parallel  int
	Audit     bool
	Events    string
	Faults    string
	FaultSeed int64

	// Profiling flags (ProfFlags): the self-timing report switch, the
	// Chrome-trace output path, and the pprof profile paths.
	Prof       bool
	TracePath  string
	CPUProfile string
	MemProfile string

	// Shard topology flags (ShardFlags): 0/0 keeps the classic
	// single-cluster engine.
	TrainingShards  int
	InferenceShards int

	profC *prof.Collector
	cpuF  *os.File
}

// New returns a group registering flags on fs under the command name (used
// as the error prefix).
func New(cmd string, fs FlagSet) *Group { return &Group{cmd: cmd, fs: fs} }

// SchemeFlag registers -scheme. kinds documents the registered scheduler
// list; multi notes comma-separated fan-out in the help text.
func (g *Group) SchemeFlag(def string, multi bool) {
	usage := "scheduler: " + kindCSV(lyra.Schedulers())
	if multi {
		usage = "scheduler(s), comma-separated: " + kindCSV(lyra.Schedulers())
	}
	g.fs.StringVar(&g.Scheme, "scheme", def, usage)
}

// ReclaimFlag registers -reclaim. extra appends non-registry values some
// commands accept (lyra-testbed takes "none").
func (g *Group) ReclaimFlag(def string, extra ...string) {
	kinds := make([]string, 0, len(lyra.Reclaims())+len(extra))
	for _, k := range lyra.Reclaims() {
		kinds = append(kinds, string(k))
	}
	kinds = append(kinds, extra...)
	g.fs.StringVar(&g.Reclaim, "reclaim", def, "reclaim policy: "+strings.Join(kinds, ", "))
}

// SeedFlag registers -seed.
func (g *Group) SeedFlag(usage string) {
	if usage == "" {
		usage = "random seed"
	}
	g.fs.Int64Var(&g.Seed, "seed", 1, usage)
}

// ParallelFlag registers -parallel (0 = GOMAXPROCS), the runner pool bound.
func (g *Group) ParallelFlag(what string) {
	g.fs.IntVar(&g.Parallel, "parallel", 0, "max concurrent "+what+" (0 = GOMAXPROCS)")
}

// AuditFlag registers -audit.
func (g *Group) AuditFlag(granularity string) {
	g.fs.BoolVar(&g.Audit, "audit", false,
		"run the invariant auditor after every "+granularity+" (results are identical, runs slower)")
}

// EventsFlag registers -events.
func (g *Group) EventsFlag(what string) {
	g.fs.StringVar(&g.Events, "events", "",
		"write the deterministic JSONL event stream ("+what+") to this file (inspect with lyra-events)")
}

// FaultFlags registers -faults and -fault-seed with the shared syntax docs.
func (g *Group) FaultFlags(example string) {
	g.fs.StringVar(&g.Faults, "faults", "",
		fmt.Sprintf("fault-injection plan, e.g. %q (keys: mtbf, mttr, rackout, rackmttr, zoneout, zonemttr, straggler, slow, launchfail, retries, seed)", example))
	g.fs.Int64Var(&g.FaultSeed, "fault-seed", 0, "seed for the fault-injection streams (0 = use -seed)")
}

// ShardFlags registers -training-shards / -inference-shards, selecting the
// sharded multi-cluster engine (DESIGN.md §14). Config.Validate enforces
// the both-or-neither rule and the per-shard server minimums.
func (g *Group) ShardFlags() {
	g.fs.IntVar(&g.TrainingShards, "training-shards", 0,
		"partition the training cluster into this many arbitrated shards (0 = unsharded)")
	g.fs.IntVar(&g.InferenceShards, "inference-shards", 0,
		"partition the inference cluster into this many arbitrated shards (0 = unsharded)")
}

// ProfFlags registers the shared profiling flags: -prof (print the wall-
// clock self-timing report), -trace (write a Chrome trace-event JSON file,
// loadable in Perfetto or chrome://tracing), and -cpuprofile/-memprofile
// (standard pprof output). One registration point so every command gets
// identical syntax and lifecycle (StartPprof / Collector / FinishProf).
func (g *Group) ProfFlags() {
	g.fs.BoolVar(&g.Prof, "prof", false, "print the per-phase wall-clock self-timing report")
	g.fs.StringVar(&g.TracePath, "trace", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	g.fs.StringVar(&g.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	g.fs.StringVar(&g.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
}

// ProfEnabled reports whether span profiling was requested (-prof or
// -trace). pprof profiles are independent of it.
func (g *Group) ProfEnabled() bool { return g.Prof || g.TracePath != "" }

// Collector returns the shared span collector — live when -prof or -trace
// was given, nil (the disabled collector) otherwise. Commands pass it to
// the runner pool and hand its per-run profilers to RunProfiled.
func (g *Group) Collector() *prof.Collector {
	if !g.ProfEnabled() {
		return nil
	}
	if g.profC == nil {
		g.profC = prof.NewCollector(nil)
	}
	return g.profC
}

// StartPprof starts the CPU profile when -cpuprofile was given. Call it
// after flag parsing; FinishProf stops it.
func (g *Group) StartPprof() error {
	if g.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(g.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	g.cpuF = f
	return nil
}

// FinishProf flushes every requested profiling output: the -trace Chrome
// trace file, the -prof self-timing report (to w), the -cpuprofile stop and
// the -memprofile heap snapshot. Safe to call when nothing was requested;
// call it on every exit path before os.Exit.
func (g *Group) FinishProf(w io.Writer) error {
	var firstErr error
	if g.cpuF != nil {
		pprof.StopCPUProfile()
		if err := g.cpuF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		g.cpuF = nil
	}
	if g.TracePath != "" && g.profC != nil {
		f, err := os.Create(g.TracePath)
		if err == nil {
			err = g.profC.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if g.Prof && g.profC != nil && w != nil {
		g.profC.WriteText(w)
	}
	if g.MemProfile != "" {
		f, err := os.Create(g.MemProfile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Schemes splits the -scheme value on commas, trimming whitespace and
// dropping empty entries — the one list syntax every command accepts.
func (g *Group) Schemes() []string { return SplitList(g.Scheme) }

// SplitList is the comma-separated list syntax: split, trim, drop empties.
func SplitList(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Plan resolves -faults / -fault-seed into a normalized, validated fault
// plan under lyra.ResolveFaultPlan's seed fallback chain: the plan's own
// seed, then -fault-seed, then -seed. The zero value means no -faults flag
// was given.
func (g *Group) Plan() (lyra.FaultPlan, error) {
	return lyra.ResolveFaultPlan(g.Faults, g.FaultSeed, g.Seed)
}

// Fatal renders err the standard way — invariant violations as the
// structured audit report with the event-ring tail, anything else as
// "cmd: err" — and exits 1.
func (g *Group) Fatal(err error) {
	var ve *obs.ViolationError
	if errors.As(err, &ve) {
		obs.WriteViolationReport(os.Stderr, ve)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", g.cmd, err)
	os.Exit(1)
}

// Usage exits 2 with a usage-level error (bad flag combination).
func (g *Group) Usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", g.cmd, fmt.Sprintf(format, args...))
	os.Exit(2)
}

func kindCSV(ks []lyra.SchedulerKind) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}
