// Command lyra-bench regenerates the tables and figures of Lyra's
// evaluation section. By default it runs at a 1/8 scale that finishes in
// minutes; -full runs at the paper's production scale (443 training + 520
// inference servers, 15-day trace), which takes considerably longer.
//
// Simulations run through a shared memoizing pool: distinct runs fan out
// over -parallel workers, and any simulation referenced by more than one
// table executes once. -stats reports the cache economics; -repeat 2
// demonstrates them (the second pass is served entirely from the cache).
//
// Usage:
//
//	lyra-bench -list
//	lyra-bench -exp table5
//	lyra-bench -exp all -full -parallel 8
//	lyra-bench -exp fig9 -repeat 2 -stats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lyra/internal/cliflags"
	"lyra/internal/experiments"
	"lyra/internal/runner"
)

// benchStats is the -stats-json document: one pool's memoization traffic
// and wall time (the bench case of scripts/smoke.sh reads it). The recorded perf ledger
// is the repository benchmark, benchmark/ — its registry-sim workload
// samples this harness.
type benchStats struct {
	Scale     string  `json:"scale"`
	Exp       string  `json:"exp"`
	Parallel  int     `json:"parallel"`
	Repeat    int     `json:"repeat"`
	Tables    int     `json:"tables"`
	Requests  int64   `json:"sims_requested"`
	Executed  int64   `json:"sims_executed"`
	Hits      int64   `json:"cache_hits"`
	HitRate   float64 `json:"cache_hit_rate"`
	TraceGens int64   `json:"traces_synthesized"`
	WallMS    int64   `json:"wall_ms"`
}

func main() {
	g := cliflags.New("lyra-bench", flag.CommandLine)
	g.SeedFlag("random seed for trace synthesis and tie-breaking")
	g.ParallelFlag("simulations")
	g.ProfFlags()
	var (
		exp       = flag.String("exp", "all", "experiment name (see -list) or 'all'")
		full      = flag.Bool("full", false, "run at the paper's production scale")
		list      = flag.Bool("list", false, "list available experiments")
		repeat    = flag.Int("repeat", 1, "run the selection this many times (later passes hit the memo cache)")
		stats     = flag.Bool("stats", false, "print pool statistics (simulations executed, cache hits, wall time) to stderr")
		statsJSON = flag.String("stats-json", "", "also write the pool statistics as JSON to this file")
	)
	flag.Parse()
	if err := g.StartPprof(); err != nil {
		g.Fatal(err)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.What)
		}
		return
	}

	params := experiments.Small()
	scale := "small"
	if *full {
		params = experiments.Full()
		scale = "full"
	}
	params.Seed = g.Seed
	pool := runner.New(g.Parallel)
	pool.Profile(g.Collector())
	params.Pool = pool

	tables := 0
	run := func(e experiments.Experiment) {
		start := time.Now()
		for _, t := range e.Run(params) {
			w := os.Stdout
			if t.WallClock {
				w = os.Stderr
			}
			t.Fprint(w)
			tables++
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	start := time.Now()
	for pass := 0; pass < *repeat; pass++ {
		if *exp == "all" {
			for _, e := range experiments.Registry() {
				run(e)
			}
			continue
		}
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		run(e)
	}
	wall := time.Since(start)

	st := pool.Stats()
	if *stats {
		fmt.Fprintf(os.Stderr, "[pool: %s; %d workers; %d tables in %s]\n",
			st, pool.Parallelism(), tables, wall.Round(time.Millisecond))
	}
	if err := g.FinishProf(os.Stderr); err != nil {
		g.Fatal(err)
	}
	if *statsJSON != "" {
		doc := benchStats{
			Scale:     scale,
			Exp:       *exp,
			Parallel:  pool.Parallelism(),
			Repeat:    *repeat,
			Tables:    tables,
			Requests:  st.Requests,
			Executed:  st.Executed,
			Hits:      st.Hits,
			HitRate:   st.HitRate(),
			TraceGens: st.TraceGens,
			WallMS:    wall.Milliseconds(),
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "lyra-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*statsJSON, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lyra-bench:", err)
			os.Exit(1)
		}
	}
}
