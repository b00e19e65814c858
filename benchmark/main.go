// Command benchmark is the repository's benchmark: five workloads, each run
// in a process of its own, measured end to end with all instrumentation
// off and then layer by layer in a separate traced run. BENCHMARK.json at
// the repository root declares the workloads, the metrics and their bounds;
// README.md in this directory explains them.
//
//	go run ./benchmark                                   every workload, both runs, one JSON result
//	go run ./benchmark -workload prod-ideal -seed 7      one workload, end to end
//	go run ./benchmark -workload prod-ideal -trace 1     one workload, layer by layer
//	go run ./benchmark -compare OLD.json NEW.json        verdict per workload and metric
//	go run ./benchmark -selfcheck                        two suites of the same code must agree
//
// Load is a closed loop of one: repetitions run back to back, one lyra.Run
// (or one registry pass) at a time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// gomaxprocs is what every workload is sized for: the two-core box the
// recorded numbers come from. GOMAXPROCS in the environment overrides it,
// and -compare then refuses to mix the results.
const gomaxprocs = 2

// minReps is the fewest timed repetitions a run reports on, however short
// -seconds is; maxSetups is the most set-ups it times.
const (
	minReps   = 3
	maxSetups = 200
)

const specFile = "BENCHMARK.json"

// outDir is where runs leave their artefacts, relative to the checkout root.
var outDir = filepath.Join("benchmark", "out")

func main() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(gomaxprocs)
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in this process and print its result line; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 1, "input seed (7 is held out for verifying later claims)")
	seconds := fs.Float64("seconds", 0, "how long one run measures; 0 takes run_seconds from "+specFile)
	traced := fs.Int("trace", 0, "0 measures end to end with instrumentation off; 1 is the traced, layer-by-layer run")
	out := fs.String("out", filepath.Join(outDir, "result.json"), "where the suite writes its JSON result")
	compare := fs.Bool("compare", false, "compare two suite results: -compare OLD.json NEW.json")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and require the two results to agree within the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files, OLD.json NEW.json")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds == 0 {
		spec, err := loadSpec(specFile)
		if err != nil {
			return err
		}
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *name != "":
		w, ok := lookupWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
		var res result
		var det detail
		if *traced == 1 {
			res, det = measureLayers(w, *seed, deadline, outDir)
		} else {
			res, det = measureEndToEnd(w, *seed, deadline)
		}
		return printRun(os.Stdout, w.name, *seed, *traced, res, det)
	case *selfcheck:
		return selfCheck(os.Stdout, *seed, *seconds, outDir)
	}
	_, err := runSuite(os.Stdout, *seed, *seconds, *out)
	return err
}

// result is the line a run ends with, in the shape the driver reads.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detail is what the suite needs beyond the result line: the digest, the
// per-repetition samples behind each sampled value, and why a repetition failed.
type detail struct {
	Digest  string               `json:"digest"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Errors  []string             `json:"errors,omitempty"`
}

const detailPrefix = "#detail "

// measureEndToEnd is the timed run of one workload in this process. A
// failure never aborts it: it is counted, explained in detail.Errors and
// makes the result incorrect.
func measureEndToEnd(w workload, seed int64, deadline time.Time) (result, detail) {
	res := result{Metrics: newMetricSet(endToEnd)}
	det := detail{Samples: make(map[string][]float64)}
	fail := func(err error) {
		res.Failed++
		det.Errors = append(det.Errors, err.Error())
	}

	// Set-up is cheap next to a repetition and, at milliseconds, noisy, so
	// it is repeated, and in slices spread over the whole run, so that a slow
	// spell of the host cannot cover every one: at least three times before
	// the first repetition, then again before each timed one. Each set-up
	// starts from a collected heap and runs with the collector off: otherwise
	// a collection lands in some set-ups and not in others.
	var in input
	var setups []float64
	setUp := func(atLeast int, window time.Duration) error {
		begin := time.Now()
		for n := 0; n < atLeast || (len(setups) < maxSetups && time.Since(begin) < window && time.Now().Before(deadline)); n++ {
			runtime.GC()
			gcPercent := debug.SetGCPercent(-1)
			start := time.Now()
			built, err := w.build(seed)
			elapsed := time.Since(start).Seconds()
			debug.SetGCPercent(gcPercent)
			if err != nil {
				return err
			}
			if in == nil {
				in = built // every build of a seed is the same input
			}
			setups = append(setups, elapsed)
		}
		return nil
	}
	if err := setUp(3, 300*time.Millisecond); err != nil {
		res.Attempted, res.Failed = 1, 1
		det.Errors = append(det.Errors, err.Error())
		return res, det
	}

	// One untimed repetition grows the heap to its working size and fixes
	// the digest the timed ones must reproduce.
	res.Attempted++
	start := time.Now()
	ref, err := in.run()
	if err != nil {
		fail(err)
		return res, det
	}
	last := time.Since(start)
	det.Digest = ref.digest

	// Timed repetitions, at least minReps, then for as long as one more still
	// ends inside the window going by the one before it: a run takes the time
	// it was given, not a repetition more.
	var walls, allocMB, allocs []float64
	var before, after runtime.MemStats
	for len(walls)+res.Failed < minReps || time.Now().Add(last+last/10).Before(deadline) {
		if err := setUp(1, 100*time.Millisecond); err != nil {
			fail(err)
			break
		}
		runtime.GC() // every repetition starts from a collected heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := in.run()
		last = time.Since(start)
		runtime.ReadMemStats(&after)
		res.Attempted++
		if err == nil && out.digest != ref.digest {
			err = fmt.Errorf("%s: repetition %d digest %s differs from the first %s", w.name, res.Attempted, out.digest, ref.digest)
		}
		if err != nil {
			fail(err)
			continue
		}
		walls = append(walls, last.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	det.Samples["setup_s"] = setups
	det.Samples["wall_s"], det.Samples["alloc_mb_per_run"], det.Samples["allocs_per_run"] = walls, allocMB, allocs
	rss, err := peakRSSMB()
	if err != nil {
		fail(err)
	}
	if len(walls) == 0 {
		return res, det
	}

	m := res.Metrics
	m.set("setup_s", fastest(setups))
	m.set("wall_s", fastest(walls))
	m.set("alloc_mb_per_run", median(allocMB))
	m.set("allocs_per_run", median(allocs))
	m.set("peak_rss_mb", rss)
	m.set("queue_mean_s", ref.rep.Queue.Mean)
	m.set("jct_mean_s", ref.rep.JCT.Mean)
	m.set("overall_usage", ref.rep.OverallUsage)
	res.Correct = res.Failed == 0
	return res, det
}

func measureLayers(w workload, seed int64, deadline time.Time, outDir string) (result, detail) {
	res := result{Attempted: 1, Metrics: newMetricSet(perLayer)}
	var det detail
	in, err := w.build(seed)
	if err == nil {
		err = in.layers(res.Metrics, deadline, outDir)
	}
	if err != nil {
		res.Failed = 1
		det.Errors = []string{err.Error()}
	}
	res.Correct = res.Failed == 0
	return res, det
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1e3, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// printRun prints every metric by name with its unit, then the detail line
// the suite reads, then the result line the driver reads.
func printRun(w io.Writer, name string, seed int64, traced int, res result, det detail) error {
	fmt.Fprintf(w, "%s seed=%d trace=%d attempted=%d failed=%d\n", name, seed, traced, res.Attempted, res.Failed)
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %-9s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if xs := det.Samples[d.Name]; len(xs) > 0 {
			fmt.Fprintf(w, " n=%d min=%.6g q1=%.6g med=%.6g q3=%.6g max=%.6g",
				len(xs), quantile(xs, 0), quantile(xs, 25), median(xs), quantile(xs, 75), quantile(xs, 100))
		}
		fmt.Fprintln(w)
	}
	for _, e := range det.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	if det.Digest != "" {
		fmt.Fprintln(w, "  digest", det.Digest)
	}
	db, err := json.Marshal(det)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n%s\n", detailPrefix, db, rb)
	return err
}

// runChild re-executes this binary for one workload and one kind of run, so
// that heap and peak RSS are the workload's own, and parses what it printed.
func runChild(name string, seed int64, seconds float64, traced int) (result, detail, error) {
	var res result
	var det detail
	exe, err := os.Executable()
	if err != nil {
		return res, det, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return res, det, fmt.Errorf("%s (trace %d): %w", name, traced, err)
	}
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		return res, det, fmt.Errorf("%s (trace %d): child printed no detail and result lines", name, traced)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &det); err != nil {
		return res, det, err
	}
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, det, err
}
