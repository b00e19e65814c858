package lyra_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lyra"
)

// shardedGoldenConfig is the golden-scenario config (golden_events_test.go)
// with the sharded engine selected at its degenerate 1+1 topology.
func shardedGoldenConfig() lyra.Config {
	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 8, InferenceServers: 8}
	cfg.Events = true
	cfg.SchedInterval = 300
	cfg.Audit = true
	cfg.TrainingShards = 1
	cfg.InferenceShards = 1
	return cfg
}

// TestShardedGoldenIdentity runs the golden scenario through the sharded
// engine at 1 training + 1 inference shard and requires the event stream to
// be byte-identical to testdata/golden_events.jsonl — the same file the
// unsharded engine is pinned to. This is the refactor's equivalence proof:
// the shard states, the arbiter's route/loan/reclaim path, the shard-ordered
// scheduler phase and the cross-shard transfer machinery all engage, and
// none of it may shift a single byte of the decision stream.
func TestShardedGoldenIdentity(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_events.jsonl"))
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}

	tcfg := lyra.DefaultTraceConfig(7)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 64
	tr := lyra.GenerateTrace(tcfg)

	r, err := lyra.Run(shardedGoldenConfig(), tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Equal(r.Events, want) {
		d := firstDiff(r.Events, want)
		t.Fatalf("sharded 1+1 event stream diverged from golden output: got %d bytes, want %d; first difference at byte %d (context: %q vs %q)",
			len(r.Events), len(want), d, window(r.Events, d), window(want, d))
	}
}

// TestShardedDeterministicAcrossRuns runs a 4-shard topology twice and
// requires byte-identical event streams: shard schedulers and the arbiter
// run in shard-ID order, and nothing else (map order, state left over from
// the first run) may reach the stream.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(11)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 96
	tr := lyra.GenerateTrace(tcfg)

	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 12, InferenceServers: 8}
	cfg.Events = true
	cfg.Audit = true
	cfg.SchedInterval = 300
	cfg.TrainingShards = 2
	cfg.InferenceShards = 2

	var streams [][]byte
	for i := 0; i < 2; i++ {
		r, err := lyra.Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		streams = append(streams, r.Events)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		d := firstDiff(streams[0], streams[1])
		t.Fatalf("4-shard run not deterministic: first difference at byte %d (context: %q vs %q)",
			d, window(streams[0], d), window(streams[1], d))
	}
	if !bytes.Contains(streams[0], []byte(`"kind":"arb.route"`)) {
		t.Fatalf("multi-shard run emitted no arb.route events")
	}
}

// TestShardedConflictStorm drives a topology where several training shards
// develop loan demand in the same arbitration epoch. The arbiter serves them
// in shard-ID order from the live inference pools, so the grants of one
// epoch must be ascending and pairwise disjoint — with the full invariant
// suite (including cross-shard GPU conservation) auditing every event. The
// input is loaded, not saturated: under saturation the first borrower
// exhausts the headroom and nobody else is lent anything.
func TestShardedConflictStorm(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(11)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 128
	tcfg.LoadFactor = 4.0 // every shard backlogged, so several bid per epoch
	tr := lyra.GenerateTrace(tcfg)

	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 32}
	cfg.Events = true
	cfg.Audit = true
	cfg.SchedInterval = 300
	cfg.Headroom = lyra.Zero // loan the whole inference pool: maximal contention
	cfg.TrainingShards = 4
	cfg.InferenceShards = 4

	r, err := lyra.Run(cfg, tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Grants per arbitration epoch: server -> borrowing shard.
	var at float64
	lent := map[int]int{}
	contended := 0
	for _, line := range bytes.Split(r.Events, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"kind":"orch.loan"`)) {
			continue
		}
		var ev struct {
			T     float64
			Cause string
			F     struct {
				Shard   int
				Servers []int
			}
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("orch.loan event %s: %v", line, err)
		}
		if ev.Cause != "loan-grant" {
			t.Fatalf("orch.loan cause = %q, want loan-grant: %s", ev.Cause, line)
		}
		if ev.T != at {
			at, lent = ev.T, map[int]int{}
		} else if len(lent) > 0 {
			contended++
		}
		if !sort.IntsAreSorted(ev.F.Servers) {
			t.Fatalf("grant not in ascending server order: %s", line)
		}
		for _, sid := range ev.F.Servers {
			if prev, dup := lent[sid]; dup {
				t.Fatalf("t=%g: server %d lent to shard %d and to shard %d", ev.T, sid, prev, ev.F.Shard)
			}
			lent[sid] = ev.F.Shard
		}
	}
	if contended == 0 {
		t.Fatalf("no epoch served two borrowers (loans: %d)", bytes.Count(r.Events, []byte(`"kind":"orch.loan"`)))
	}
	// The audit layer would have panicked the run on any conservation
	// violation; reaching here with completions proves every shard was
	// served.
	if r.Completed == 0 {
		t.Fatalf("no jobs completed under contention")
	}
}

// FuzzShardedVsSingle is the differential proof that the sharded engine at
// its 1+1 degenerate topology IS the unsharded engine: for arbitrary trace
// seeds, cluster shapes, scheme toggles, and fault plans, both engines must
// produce byte-identical event streams with the auditor on.
func FuzzShardedVsSingle(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), true, true, false)
	f.Add(int64(7), uint8(8), uint8(8), true, false, false)
	f.Add(int64(42), uint8(6), uint8(3), false, true, true)
	f.Add(int64(99), uint8(3), uint8(6), true, true, true)
	f.Fuzz(func(t *testing.T, seed int64, trainSrv, infSrv uint8, loaning, elastic, faults bool) {
		if trainSrv == 0 || infSrv == 0 {
			t.Skip("degenerate cluster")
		}
		if trainSrv > 16 {
			trainSrv = trainSrv%16 + 1
		}
		if infSrv > 16 {
			infSrv = infSrv%16 + 1
		}
		tcfg := lyra.DefaultTraceConfig(seed)
		tcfg.Days = 1
		tcfg.TrainingGPUs = int(trainSrv) * 8
		tr := lyra.GenerateTrace(tcfg)

		cfg := lyra.DefaultConfig()
		cfg.Cluster = lyra.ClusterConfig{TrainingServers: int(trainSrv), InferenceServers: int(infSrv)}
		cfg.Loaning = loaning
		cfg.Elastic = elastic
		cfg.Events = true
		cfg.Audit = true
		cfg.SchedInterval = 300
		cfg.Seed = seed
		if faults {
			fp, err := lyra.ResolveFaultPlan("mtbf=21600,mttr=900", seed, seed)
			if err != nil {
				t.Fatalf("fault plan: %v", err)
			}
			cfg.Faults = fp
		}

		single, err := lyra.Run(cfg, tr)
		if err != nil {
			t.Fatalf("single run: %v", err)
		}
		cfg.TrainingShards, cfg.InferenceShards = 1, 1
		sharded, err := lyra.Run(cfg, tr)
		if err != nil {
			t.Fatalf("sharded run: %v", err)
		}
		if !bytes.Equal(single.Events, sharded.Events) {
			d := firstDiff(single.Events, sharded.Events)
			t.Fatalf("sharded 1+1 diverged from unsharded engine at byte %d (single: %q, sharded: %q)",
				d, window(single.Events, d), window(sharded.Events, d))
		}
		if a, b := scalars(single), scalars(sharded); !reflect.DeepEqual(a, b) {
			t.Fatalf("reports diverged:\nsingle:  %+v\nsharded: %+v", a, b)
		}
	})
}

// scalars returns r with everything but its scalar statistics dropped, so
// two reports compare by value.
func scalars(r *lyra.Report) lyra.Report {
	c := *r
	c.Events, c.Prof, c.Raw = nil, nil, nil
	return c
}

// TestTopologyInvariants runs one faulted, audited scenario through every
// way of cutting the cluster. The auditor (cross-shard conservation
// included) panics the run on any violation, so a returned report means it
// held at every event; job width is capped at the smallest shard so every
// topology can place every job. One state and 1+1 are the same simulation
// and must report the same statistics.
func TestTopologyInvariants(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(5)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 96
	tcfg.MaxJobGPUs = 32 // 12 training servers over 3 shards: 4 servers of 8 GPUs each
	tr := lyra.GenerateTrace(tcfg)

	fp, err := lyra.ResolveFaultPlan("mtbf=21600,mttr=900,rackout=43200", 5, 5)
	if err != nil {
		t.Fatalf("fault plan: %v", err)
	}

	reports := make(map[string]*lyra.Report)
	for _, topo := range []struct {
		name       string
		train, inf int
	}{{"one-state", 0, 0}, {"1+1", 1, 1}, {"2+2", 2, 2}, {"3+2", 3, 2}} {
		cfg := lyra.DefaultConfig()
		cfg.Cluster = lyra.ClusterConfig{TrainingServers: 12, InferenceServers: 8}
		cfg.Audit = true
		cfg.SchedInterval = 300
		cfg.Faults = fp
		cfg.TrainingShards, cfg.InferenceShards = topo.train, topo.inf
		r, err := lyra.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", topo.name, err)
		}
		if r.Completed != r.Total {
			t.Errorf("%s: completed %d of %d jobs", topo.name, r.Completed, r.Total)
		}
		if r.Crashes == 0 || r.Recoveries == 0 {
			t.Errorf("%s: fault plan injected nothing (crashes %d, recoveries %d)", topo.name, r.Crashes, r.Recoveries)
		}
		reports[topo.name] = r
	}
	if a, b := scalars(reports["one-state"]), scalars(reports["1+1"]); !reflect.DeepEqual(a, b) {
		t.Errorf("one-state and 1+1 reports differ:\none-state: %+v\n1+1:       %+v", a, b)
	}
}
