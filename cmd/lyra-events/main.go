// Command lyra-events queries the JSONL event streams that lyra-sim -events
// and lyra-testbed -events record. It reconstructs a single job's lifecycle
// timeline, summarizes decision activity per scheduler epoch, tallies events
// per kind, and diffs two streams (the determinism contract makes two runs
// of the same simulator configuration byte-identical, so the first divergent
// line pinpoints where behaviour forked).
//
// Usage:
//
//	lyra-events out.jsonl              # per-kind summary
//	lyra-events -job 4217 out.jsonl    # one job's timeline + lifecycle check
//	lyra-events -epochs out.jsonl      # per-epoch decision counts
//	lyra-events -faults out.jsonl      # fault-injection summary + domain timeline
//	lyra-events -diff a.jsonl b.jsonl  # first divergent line, exit 1 if any
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"lyra/internal/cliflags"
	"lyra/internal/obs"
)

// flags is the shared error-rendering layer; lyra-events registers none of
// the standard scheme/fault flags but keeps the standard fatal path.
var flags = cliflags.New("lyra-events", flag.CommandLine)

func main() {
	flags.ProfFlags()
	var (
		jobID  = flag.Int("job", -1, "reconstruct this job's timeline and validate its lifecycle")
		epochs = flag.Bool("epochs", false, "summarize per-epoch decision counts")
		faults = flag.Bool("faults", false, "summarize fault injection: crash counts, lost capacity, domain outage timeline")
		diff   = flag.Bool("diff", false, "compare two streams line by line; exit 1 on the first divergence")
	)
	flag.Parse()
	if err := flags.StartPprof(); err != nil {
		fatal(err)
	}

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two files, got %d", flag.NArg()))
		}
		diffStreams(flag.Arg(0), flag.Arg(1))
		finishProf()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lyra-events [-job N | -epochs | -faults | -diff] <events.jsonl> [events2.jsonl]")
		os.Exit(2)
	}
	p := flags.Collector().NewProfiler("lyra-events")
	sp := p.Start("load")
	events := load(flag.Arg(0))
	sp.End()

	sp = p.Start("analyze")
	switch {
	case *jobID >= 0:
		jobTimeline(events, *jobID)
	case *epochs:
		epochTable(events)
	case *faults:
		faultSummary(events)
	default:
		summary(events)
	}
	sp.End()
	finishProf()
}

func finishProf() {
	if err := flags.FinishProf(os.Stderr); err != nil {
		fatal(err)
	}
}

func load(path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		fatal(err)
	}
	return events
}

// jobTimeline prints every event about one job and validates the lifecycle
// state machine over them, exiting non-zero if the job is absent or its
// lifecycle is out of order / incomplete.
func jobTimeline(events []obs.Event, id int) {
	tl := obs.JobTimeline(events, id)
	if len(tl) == 0 {
		fatal(fmt.Errorf("job %d: no events in stream (jobs recorded: %d)", id, len(obs.JobIDs(events))))
	}
	for _, ev := range tl {
		fmt.Println(ev.String())
	}
	if err := obs.ValidateLifecycle(tl); err != nil {
		fatal(fmt.Errorf("job %d: %w", id, err))
	}
	starts, preempts := 0, 0
	for _, ev := range tl {
		switch ev.Kind {
		case obs.KindJobStart:
			starts++
		case obs.KindJobPreempt:
			preempts++
		}
	}
	fmt.Printf("lifecycle: complete (%d events, %d starts, %d preemptions)\n", len(tl), starts, preempts)
}

func epochTable(events []obs.Event) {
	rows := obs.EpochRows(events)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "t\tepoch\tstarts\tpreempts\tscales\torch-moves\tqueue-after")
	for _, r := range rows {
		qa := ""
		if v, ok := r.F["queue_after"]; ok {
			qa = fmt.Sprint(v)
		}
		fmt.Fprintf(w, "%g\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.T, r.Epoch, r.Starts, r.Preempts, r.Scales, r.OrchMoves, qa)
	}
	w.Flush()
}

// faultSummary reconstructs the fault-injection picture from the stream
// alone: per-server crash/recover counts, the repeat-crashers, the GPU
// capacity-time lost to quarantine (crash→recover pairing; servers still
// down at the end of the stream are charged up to the last event), backoff
// and hold-down activity, and the correlated domain-outage timeline.
func faultSummary(events []obs.Event) {
	type srv struct {
		crashes, recoveries int
		gpus                float64
		downSince           float64
		down                bool
	}
	servers := map[int]*srv{}
	get := func(ev obs.Event) *srv {
		id := int(fnum(ev.F["server"]))
		s := servers[id]
		if s == nil {
			s = &srv{}
			servers[id] = s
		}
		return s
	}
	var lostGPUSec, lastT float64
	var holddowns, backoffHolds int
	type domRow struct {
		t       float64
		cause   string
		domain  int
		servers int
	}
	var domains []domRow
	for _, ev := range events {
		if ev.T > lastT {
			lastT = ev.T
		}
		switch ev.Kind {
		case obs.KindFaultCrash:
			s := get(ev)
			s.crashes++
			s.gpus = fnum(ev.F["gpus"])
			if !s.down {
				s.down, s.downSince = true, ev.T
			}
		case obs.KindFaultRecover:
			s := get(ev)
			s.recoveries++
			if s.down {
				lostGPUSec += (ev.T - s.downSince) * s.gpus
				s.down = false
			}
		case obs.KindFaultDomain:
			domains = append(domains, domRow{ev.T, ev.Cause, int(fnum(ev.F["domain"])), int(fnum(ev.F["servers"]))})
		case obs.KindFaultHolddown:
			holddowns++
		case obs.KindJobBackoff:
			if ev.Cause == "hold" {
				backoffHolds++
			}
		}
	}
	if len(servers) == 0 {
		fmt.Println("no fault events in stream")
		return
	}
	ids := make([]int, 0, len(servers))
	totalCrashes, totalRecoveries := 0, 0
	for id, s := range servers {
		ids = append(ids, id)
		totalCrashes += s.crashes
		totalRecoveries += s.recoveries
		if s.down { // never recovered: charge quarantine up to stream end
			lostGPUSec += (lastT - s.downSince) * s.gpus
		}
	}
	sort.Ints(ids)
	fmt.Printf("%d crashes, %d recoveries across %d servers\n", totalCrashes, totalRecoveries, len(ids))
	fmt.Printf("capacity lost to quarantine: %.0f GPU-seconds (%.2f GPU-hours)\n", lostGPUSec, lostGPUSec/3600)
	if holddowns > 0 || backoffHolds > 0 {
		fmt.Printf("degraded mode: %d quarantine hold-downs, %d restart-backoff holds\n", holddowns, backoffHolds)
	}

	// Repeat-crashers: servers crashing more than once, worst first.
	sort.Slice(ids, func(i, j int) bool {
		a, b := servers[ids[i]], servers[ids[j]]
		if a.crashes != b.crashes {
			return a.crashes > b.crashes
		}
		return ids[i] < ids[j]
	})
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "server\tcrashes\trecoveries")
	shown := 0
	for _, id := range ids {
		if shown >= 10 {
			break
		}
		s := servers[id]
		fmt.Fprintf(w, "%d\t%d\t%d\n", id, s.crashes, s.recoveries)
		shown++
	}
	w.Flush()

	if len(domains) > 0 {
		fmt.Printf("\ndomain outages (%d events):\n", len(domains))
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "t\tevent\tdomain\tservers")
		for _, d := range domains {
			fmt.Fprintf(w, "%g\t%s\t%d\t%d\n", d.t, d.cause, d.domain, d.servers)
		}
		w.Flush()
	}
}

// fnum converts a decoded JSON payload value to float64 (numbers decode as
// float64; anything else counts as zero).
func fnum(v any) float64 {
	f, _ := v.(float64)
	return f
}

func summary(events []obs.Event) {
	kinds, counts := obs.CountByKind(events)
	fmt.Printf("%d events, %d jobs\n", len(events), len(obs.JobIDs(events)))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, k := range kinds {
		fmt.Fprintf(w, "%s\t%d\n", k, counts[k])
	}
	w.Flush()

	// Sharded runs (DESIGN.md §14): per training shard, the jobs the
	// arbitrator routed there and the loan traffic it brokered.
	type shardRow struct{ routed, grants, lent, reclaims, returns int }
	rows := map[int]shardRow{}
	for _, ev := range events {
		v, tagged := ev.F["shard"]
		if !tagged {
			continue
		}
		id := int(fnum(v))
		r := rows[id]
		switch ev.Kind {
		case obs.KindArbRoute:
			r.routed++
		case obs.KindOrchLoan:
			r.grants++
			r.lent += int(fnum(ev.F["count"]))
		case obs.KindOrchReclaim:
			r.reclaims++
		case obs.KindOrchReturn:
			r.returns++
		}
		rows[id] = r
	}
	if len(rows) > 0 {
		ids := make([]int, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Printf("\narbitrated shards:\n")
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "shard\tjobs routed\tloan grants\tservers lent\treclaims\treturns")
		for _, id := range ids {
			r := rows[id]
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n", id, r.routed, r.grants, r.lent, r.reclaims, r.returns)
		}
		w.Flush()
	}
}

// diffStreams compares two JSONL streams line by line and reports the first
// divergence with context. Byte-identical streams exit 0 silently.
func diffStreams(pa, pb string) {
	fa, err := os.Open(pa)
	if err != nil {
		fatal(err)
	}
	defer fa.Close()
	fb, err := os.Open(pb)
	if err != nil {
		fatal(err)
	}
	defer fb.Close()

	sa := bufio.NewScanner(fa)
	sb := bufio.NewScanner(fb)
	sa.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sb.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for {
		line++
		okA, okB := sa.Scan(), sb.Scan()
		if !okA && !okB {
			if err := sa.Err(); err != nil {
				fatal(err)
			}
			if err := sb.Err(); err != nil {
				fatal(err)
			}
			fmt.Printf("identical (%d lines)\n", line-1)
			return
		}
		la, lb := sa.Text(), sb.Text()
		if !okA || !okB || la != lb {
			fmt.Printf("streams diverge at line %d:\n", line)
			if okA {
				fmt.Printf("  %s: %s\n", pa, la)
			} else {
				fmt.Printf("  %s: <end of stream>\n", pa)
			}
			if okB {
				fmt.Printf("  %s: %s\n", pb, lb)
			} else {
				fmt.Printf("  %s: <end of stream>\n", pb)
			}
			os.Exit(1)
		}
	}
}

func fatal(err error) { flags.Fatal(err) }
