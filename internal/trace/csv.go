package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"lyra/internal/job"
)

// csvHeader is the column layout of the on-disk trace format used by
// cmd/tracegen. Durations are the runtime at maximum demand in seconds.
var csvHeader = []string{
	"id", "arrival", "model", "gpus_per_worker", "min_workers", "max_workers",
	"duration_at_max", "fungible", "elastic", "hetero", "checkpoint",
}

// WriteCSV encodes the trace.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, j := range tr.Jobs {
		rec := []string{
			strconv.Itoa(j.ID),
			strconv.FormatInt(j.Arrival, 10),
			strconv.Itoa(int(j.Model)),
			strconv.Itoa(j.GPUsPerWorker),
			strconv.Itoa(j.MinWorkers),
			strconv.Itoa(j.MaxWorkers),
			strconv.FormatFloat(j.MinRuntime(job.Linear), 'g', -1, 64),
			strconv.FormatBool(j.Fungible),
			strconv.FormatBool(j.Elastic),
			strconv.FormatBool(j.Hetero),
			strconv.FormatBool(j.Checkpoint),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV and rejects a repeated job ID.
// The horizon is set to the end of the last arrival's day.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "id" {
		return nil, fmt.Errorf("trace: unexpected CSV header %v", rows[0])
	}
	tr := &Trace{}
	seen := make(map[int]bool, len(rows)-1)
	for n, rec := range rows[1:] {
		j, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", n+2, err)
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("trace: row %d: job ID %d repeats", n+2, j.ID)
		}
		seen[j.ID] = true
		tr.Jobs = append(tr.Jobs, j)
		if end := (j.Arrival/86400 + 1) * 86400; end > tr.Horizon {
			tr.Horizon = end
		}
	}
	return tr, tr.Validate()
}

func parseCSVRecord(rec []string) (*job.Job, error) {
	if len(rec) != len(csvHeader) {
		return nil, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(rec))
	}
	geti := func(i int) (int, error) { return strconv.Atoi(rec[i]) }
	id, err := geti(0)
	if err != nil {
		return nil, err
	}
	arrival, err := strconv.ParseInt(rec[1], 10, 64)
	if err != nil {
		return nil, err
	}
	model, err := geti(2)
	if err != nil {
		return nil, err
	}
	gpw, err := geti(3)
	if err != nil {
		return nil, err
	}
	minW, err := geti(4)
	if err != nil {
		return nil, err
	}
	maxW, err := geti(5)
	if err != nil {
		return nil, err
	}
	dur, err := strconv.ParseFloat(rec[6], 64)
	if err != nil {
		return nil, err
	}
	j := job.New(id, arrival, job.Model(model), gpw, minW, maxW, dur)
	for i, dst := range []*bool{&j.Fungible, &j.Elastic, &j.Hetero, &j.Checkpoint} {
		b, err := strconv.ParseBool(rec[7+i])
		if err != nil {
			return nil, err
		}
		*dst = b
	}
	return j, j.Validate()
}
