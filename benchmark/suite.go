package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchSpec is BENCHMARK.json: the declaration this program is held to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// machine identifies where a result was measured. Timings from different
// machines are not comparable, so -compare refuses to mix them.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// summary is one end-to-end metric of one workload: the reported value (for
// the sampled ones the fastest repetition of a timing, the median of an
// allocation figure) and the spread of the samples behind it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
}

// spread is how far the samples leave the value in doubt, as a share of it:
// the interquartile range around a median; for a timing, whose value is its
// fastest sample, the gap from there to the lower quartile, since the slow
// samples are the host's doing and say nothing about the fast end. 0 for a
// metric that is not sampled.
func (s summary) spread() float64 {
	if s.N < 2 || s.Value == 0 {
		return 0
	}
	if s.Value == s.Min {
		return (s.Q1 - s.Min) / s.Value
	}
	return (s.Q3 - s.Q1) / s.Value
}

type workloadResult struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  metricSet          `json:"per_layer"`
}

// suiteResult is the one JSON document a suite run writes. Claim is always
// null: this program measures, it does not claim.
type suiteResult struct {
	Machine   machine          `json:"machine"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

func (r *suiteResult) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// runSuite runs every workload end to end and then traced, each run in a
// child process, prints every metric, and writes the result to path.
func runSuite(w io.Writer, seed int64, seconds float64, path string) (*suiteResult, error) {
	suite := &suiteResult{Machine: thisMachine(), Seed: seed, Seconds: seconds}
	for _, wl := range workloads() {
		res, det, err := runChild(wl.name, seed, seconds, 0)
		if err != nil {
			return nil, err
		}
		if err := printRun(w, wl.name, seed, 0, res, det); err != nil {
			return nil, err
		}
		wr := workloadResult{
			Name: wl.name, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			Errors: det.Errors, Digest: det.Digest, EndToEnd: make(map[string]summary),
		}
		for _, d := range endToEnd {
			v := res.Metrics[d.Name].Value
			xs := det.Samples[d.Name]
			if len(xs) == 0 {
				xs = []float64{v} // not sampled: one value, no spread
			}
			wr.EndToEnd[d.Name] = summary{Value: v, Unit: d.Unit, N: len(xs),
				Min: quantile(xs, 0), Q1: quantile(xs, 25), Q3: quantile(xs, 75), Max: quantile(xs, 100)}
		}

		res, det, err = runChild(wl.name, seed, seconds, 1)
		if err != nil {
			return nil, err
		}
		if err := printRun(w, wl.name, seed, 1, res, det); err != nil {
			return nil, err
		}
		wr.PerLayer = res.Metrics
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Errors = append(wr.Errors, det.Errors...)
		suite.Workloads = append(suite.Workloads, wr)
	}
	b, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "wrote", path)
	return suite, nil
}

func loadResult(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric and fails
// if any row regressed or any digest changed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	old, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return err
	}
	bad, err := compareResults(w, spec, old, cur)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or changed", bad)
	}
	return nil
}

// compareResults applies DESIGN.md §12's re-baseline policy mechanically:
// results from different machines, GOMAXPROCS, seeds or run lengths are not
// compared at all. Otherwise each row gets a verdict: unresolved when
// either side's own spread is wider than the bound, regressed when the new
// value is worse by more than the bound, improved when it is better by
// more than that spread, unchanged in between. It returns how many rows
// regressed plus how many digests changed.
func compareResults(w io.Writer, spec *benchSpec, old, cur *suiteResult) (bad int, err error) {
	if old.Machine != cur.Machine {
		return 0, fmt.Errorf("refusing to compare: measured on %+v and on %+v", old.Machine, cur.Machine)
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds {
		return 0, fmt.Errorf("refusing to compare: seed %d for %g s and seed %d for %g s", old.Seed, old.Seconds, cur.Seed, cur.Seconds)
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %18s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, o := range old.Workloads {
		n := cur.workload(o.Name)
		if n == nil {
			return bad, fmt.Errorf("workload %s is missing from the new result", o.Name)
		}
		for _, d := range spec.EndToEnd {
			a, b := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			verdict := judge(a, b, d.Better == "higher", d.Bound)
			if verdict == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %8.4f of %-7.4g %5.0f%%  %s\n",
				o.Name, d.Name, a.Value, b.Value, b.Value/a.Value, a.Value, 100*d.Bound, verdict)
		}
		verdict := "same"
		if o.Digest != n.Digest {
			verdict = "changed"
			bad++
		}
		fmt.Fprintf(w, "%-14s %-18s %14.12s %14.12s %37s\n", o.Name, "digest", o.Digest, n.Digest, verdict)
		if n.Failed > 0 || !n.Correct {
			bad++
			fmt.Fprintf(w, "%-14s %d of %d repetitions failed in the new result\n", o.Name, n.Failed, n.Attempted)
		}
	}
	return bad, nil
}

func judge(old, cur summary, higherIsBetter bool, bound float64) string {
	if old.Value == 0 {
		if cur.Value == 0 {
			return "unchanged"
		}
		return "unresolved"
	}
	worse := (cur.Value - old.Value) / old.Value
	if higherIsBetter {
		worse = -worse
	}
	noise := old.spread()
	if s := cur.spread(); s > noise {
		noise = s
	}
	switch {
	case noise > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < 0 && -worse > noise:
		return "improved"
	}
	return "unchanged"
}

// selfCheck runs the suite twice on the same code. The two results must
// agree: digests and simulated statistics exactly, everything else within
// its own bound, and no repetition may have failed.
func selfCheck(w io.Writer, seed int64, seconds float64, outDir string) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var runs [2]*suiteResult
	for i := range runs {
		path := filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1))
		if runs[i], err = runSuite(w, seed, seconds, path); err != nil {
			return err
		}
	}
	if problems := disagreements(spec, runs[0], runs[1]); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(w, "selfcheck:", p)
		}
		return fmt.Errorf("selfcheck: %d disagreements between two runs of the same code", len(problems))
	}
	fmt.Fprintln(w, "selfcheck: two runs of the same code agree on every workload and metric")
	return nil
}

func disagreements(spec *benchSpec, a, b *suiteResult) []string {
	var out []string
	for _, x := range a.Workloads {
		y := b.workload(x.Name)
		if y == nil {
			out = append(out, x.Name+": missing from the second run")
			continue
		}
		if x.Failed+y.Failed > 0 || !x.Correct || !y.Correct {
			out = append(out, fmt.Sprintf("%s: %d and %d repetitions failed", x.Name, x.Failed, y.Failed))
		}
		if x.Digest != y.Digest {
			out = append(out, fmt.Sprintf("%s: digest %s, then %s", x.Name, x.Digest, y.Digest))
		}
		for _, d := range spec.EndToEnd {
			u, v := x.EndToEnd[d.Name].Value, y.EndToEnd[d.Name].Value
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			switch {
			case simulated[d.Name] && u != v:
				out = append(out, fmt.Sprintf("%s %s: simulated statistic %v, then %v", x.Name, d.Name, u, v))
			case !simulated[d.Name] && hi-lo > d.Bound*lo:
				out = append(out, fmt.Sprintf("%s %s: %.6g, then %.6g, further apart than the %.0f%% bound", x.Name, d.Name, u, v, 100*d.Bound))
			}
		}
	}
	return out
}
