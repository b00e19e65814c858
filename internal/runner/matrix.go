package runner

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"lyra"
)

// CellResult is one executed matrix cell: the report, the wall time the
// harness waited for it (memo hits are ~0), and the SLO verdict.
type CellResult struct {
	Spec string
	Cell string
	// Key is the cell's content-addressed cache key.
	Key    string
	Report *lyra.Report
	Wall   time.Duration
	// Err is the execution error, if any; an errored cell always fails.
	Err error
	// Violations are the failed SLO assertions (nil = all pass).
	Violations []lyra.SLOViolation
}

// Pass reports whether the cell executed and met every SLO bound.
func (r CellResult) Pass() bool { return r.Err == nil && len(r.Violations) == 0 }

// MatrixReport is the structured outcome of one scenario×scheme matrix.
type MatrixReport struct {
	Cells []CellResult
}

// Failures counts failed cells (execution errors or SLO violations).
func (m *MatrixReport) Failures() int {
	n := 0
	for _, c := range m.Cells {
		if !c.Pass() {
			n++
		}
	}
	return n
}

// OK reports whether every cell passed.
func (m *MatrixReport) OK() bool { return m.Failures() == 0 }

// WriteTable renders the matrix as one row per cell: headline metrics in
// the units the SLO keys use, then the verdict with every violated bound
// spelled out.
func (m *MatrixReport) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cell\tjobs\tq_p99_h\tjct_p99_h\tlost\tpreempt\twall\tslo")
	for _, c := range m.Cells {
		if c.Err != nil {
			fmt.Fprintf(tw, "%s/%s\t-\t-\t-\t-\t-\t%s\tERROR: %v\n", c.Spec, c.Cell, c.Wall.Round(time.Millisecond), c.Err)
			continue
		}
		rep := c.Report
		verdict := "ok"
		if len(c.Violations) > 0 {
			verdict = "FAIL:"
			for i, v := range c.Violations {
				if i > 0 {
					verdict += ";"
				}
				verdict += " " + v.String()
			}
		}
		fmt.Fprintf(tw, "%s/%s\t%d/%d\t%.2f\t%.2f\t%d\t%.2f%%\t%s\t%s\n",
			c.Spec, c.Cell, rep.Completed, rep.Total,
			rep.Queue.P99/3600, rep.JCT.P99/3600,
			rep.Total-rep.Completed, 100*rep.PreemptionRatio,
			c.Wall.Round(time.Millisecond), verdict)
	}
	tw.Flush()
}

// Matrix executes compiled cells as one batch over the memoizing pool —
// distinct cells fan out over the workers, duplicate cells (and cells any
// other experiment already ran) collapse onto one execution — and
// evaluates each cell's SLO against its report and observed wall time.
// Execution errors are recorded per cell rather than aborting the matrix,
// so one broken cell cannot hide the verdicts of the others.
func (p *Pool) Matrix(cells []lyra.CompiledCell) *MatrixReport {
	m := &MatrixReport{Cells: make([]CellResult, len(cells))}
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := cells[i]
			res := CellResult{Spec: cell.Spec, Cell: cell.Cell}
			// The cell's Mix is the Spec's: a compiled cell keys exactly
			// like the hand-built Spec of the same run.
			spec := Spec{Name: cell.Label(), Config: cell.Config, Mix: cell.Mix, Trace: TraceSpec{Gen: cell.Trace}}
			if key, err := spec.Key(); err == nil {
				res.Key = key
			}
			start := time.Now()
			rep, err := p.Sim(spec)
			res.Wall = time.Since(start)
			res.Report, res.Err = rep, err
			if err == nil {
				res.Violations = cell.SLO.Evaluate(rep, res.Wall)
			}
			m.Cells[i] = res
		}(i)
	}
	wg.Wait()
	return m
}
