// Command lyra-matrix runs declarative scenario specs as scenario×scheme
// matrices with SLO gating: each JSON spec file (see testdata/scenarios/)
// declares a cluster shape (optionally sharded into arbitrated
// multi-cluster topologies with mixed GPU generations — see the "shards"
// and "training_gpu" keys and DESIGN.md §14), a synthesized workload,
// an optional fault plan, a scheme matrix and SLO assertions; lyra-matrix
// compiles every spec through the same Config path hand-built experiments
// use, fans the cells out over the parallel memoizing runner, and exits
// non-zero if any cell errors or breaks an SLO bound — the repository's
// perf/SLO regression gate (`make smoke CASE=matrix`).
//
// Usage:
//
//	lyra-matrix -spec testdata/scenarios/smoke.json
//	lyra-matrix -spec testdata/scenarios -parallel 8        # every *.json in the directory
//	lyra-matrix -spec smoke.json -dry                       # list compiled cells, run nothing
//	lyra-matrix -spec smoke.json -tighten 0.01              # prove the failure path
//	lyra-matrix -spec smoke.json -json report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lyra"
	"lyra/internal/cliflags"
	"lyra/internal/prof"
	"lyra/internal/runner"
)

func main() {
	g := cliflags.New("lyra-matrix", flag.CommandLine)
	g.ParallelFlag("simulations")
	g.AuditFlag("simulator event")
	g.ProfFlags()
	var (
		spec     = flag.String("spec", "", "run the JSON scenario spec at this path (or every *.json in the directory)")
		dry      = flag.Bool("dry", false, "compile and list the matrix cells without running them")
		tighten  = flag.Float64("tighten", 1, "scale every SLO upper bound by this factor (CI uses <1 to prove the harness fails on regressions)")
		jsonPath = flag.String("json", "", "also write the structured matrix report as JSON to this file")
	)
	flag.Parse()
	if err := g.StartPprof(); err != nil {
		g.Fatal(err)
	}

	if *spec == "" {
		g.Usage("-spec is required (a spec file or a directory of them)")
	}
	paths, err := specPaths(*spec)
	if err != nil {
		g.Fatal(err)
	}
	cells, err := loadMatrix(paths, g.Audit, *tighten)
	if err != nil {
		g.Fatal(err)
	}
	if len(cells) == 0 {
		g.Fatal(fmt.Errorf("no cells compiled from %s", *spec))
	}

	if *dry {
		for _, c := range cells {
			slo := "no SLO"
			if !c.SLO.Empty() {
				slo = "SLO gated"
			}
			fmt.Printf("%-40s scheduler=%-8s scenario=%-6s %s\n",
				c.Label(), c.Config.Normalize().Scheduler, orDash(string(c.Mix.Scenario)), slo)
		}
		return
	}

	pool := runner.New(g.Parallel)
	pool.Profile(g.Collector())
	m := pool.Matrix(cells)
	m.WriteTable(os.Stdout)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, m); err != nil {
			g.Fatal(err)
		}
	}
	if err := g.FinishProf(os.Stderr); err != nil {
		g.Fatal(err)
	}
	if !m.OK() {
		fmt.Fprintf(os.Stderr, "lyra-matrix: %d of %d cells failed\n", m.Failures(), len(m.Cells))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lyra-matrix: %d cells, all SLOs met\n", len(m.Cells))
}

// specPaths expands a file or directory argument into the sorted list of
// spec files to run.
func specPaths(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.ToLower(filepath.Ext(e.Name())) == ".json" {
			out = append(out, filepath.Join(path, e.Name()))
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("no *.json spec files in %s", path)
	}
	return out, nil
}

// loadMatrix loads the spec files, compiles them, and applies the given
// per-cell adjustments: audit turns the invariant auditor on in every
// cell's config, tighten != 1 scales every SLO upper bound (the CI failure
// -path proof).
func loadMatrix(paths []string, audit bool, tighten float64) ([]lyra.CompiledCell, error) {
	var cells []lyra.CompiledCell
	for _, path := range paths {
		spec, err := lyra.LoadSpec(path)
		if err != nil {
			return nil, err
		}
		cs, err := spec.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cells = append(cells, cs...)
	}
	for i := range cells {
		if audit {
			cells[i].Config.Audit = true
		}
		if tighten != 1 {
			cells[i].SLO = cells[i].SLO.Tighten(tighten)
		}
	}
	return cells, nil
}

// matrixJSON is the -json document: one entry per cell with the headline
// metrics and the violated bounds.
type matrixJSON struct {
	Cells    []cellJSON `json:"cells"`
	Failures int        `json:"failures"`
}

type cellJSON struct {
	Spec        string  `json:"spec"`
	Cell        string  `json:"cell"`
	Key         string  `json:"key"`
	Pass        bool    `json:"pass"`
	Error       string  `json:"error,omitempty"`
	Completed   int     `json:"completed"`
	Total       int     `json:"total"`
	QueuingP99H float64 `json:"queuing_p99_hours"`
	JCTP99H     float64 `json:"jct_p99_hours"`
	WallMS      int64   `json:"wall_ms"`
	Violations  []any   `json:"violations,omitempty"`
	// Prof is the cell's wall-clock self-timing report when the matrix ran
	// with -prof/-trace (cache-hit cells carry the executing run's report).
	Prof *prof.Report `json:"prof,omitempty"`
}

func writeJSON(path string, m *runner.MatrixReport) error {
	doc := matrixJSON{Failures: m.Failures()}
	for _, c := range m.Cells {
		cj := cellJSON{Spec: c.Spec, Cell: c.Cell, Key: c.Key, Pass: c.Pass(), WallMS: c.Wall.Milliseconds()}
		if c.Err != nil {
			cj.Error = c.Err.Error()
		} else {
			cj.Completed, cj.Total = c.Report.Completed, c.Report.Total
			cj.QueuingP99H = c.Report.Queue.P99 / 3600
			cj.JCTP99H = c.Report.JCT.P99 / 3600
			cj.Prof = c.Report.Prof
		}
		for _, v := range c.Violations {
			cj.Violations = append(cj.Violations, v)
		}
		doc.Cells = append(doc.Cells, cj)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
