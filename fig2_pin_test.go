package lyra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestFigure2Pinned pins Figure 2, the hourly share of newly submitted jobs
// that missed their first scheduling attempt, over three audited runs: the
// sha256 of the bits of every Report.Raw.HourlyQueuedRatio entry. No report
// or stream digest covers it (the benchmark's digest drops Raw).
//
// The trace asks for twice the 16+16 cluster's training GPUs.
//
//   - fifo-12+16: the one-state Baseline (FIFO, no loaning).
//   - lyra-2+2: Lyra with loaning on a 16+16 cluster cut 2+2.
//   - capped-faulted: Lyra on 8+8 under a crash plan with restart
//     backoff, capped at t = 43617, the arrival of a job whose first
//     scheduling epoch (t = 43620) lies past the cap.
func TestFigure2Pinned(t *testing.T) {
	tcfg := DefaultTraceConfig(2)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 256
	tr := GenerateTrace(tcfg)
	contended := ClusterConfig{TrainingServers: 12, InferenceServers: 16}

	fifo := BaselineConfig()
	fifo.Cluster = contended
	fifo.Audit = true

	sharded := DefaultConfig()
	sharded.Cluster = smallCluster()
	sharded.Audit = true
	sharded.TrainingShards, sharded.InferenceShards = 2, 2

	capped := DefaultConfig()
	capped.Cluster = ClusterConfig{TrainingServers: 8, InferenceServers: 8}
	capped.Audit = true
	capped.MaxTime = 43617
	capped.Faults = FaultPlan{Seed: 4, ServerMTBF: 3600, ServerMTTR: 600}
	capped.RestartBackoff = true

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fifo-12+16", fifo, "8f4b4b0226d4107ffbae566a8146ed9b7a7a8b393739742831a0e92d47b2e30c"},
		{"lyra-2+2", sharded, "3f0a10361f89c4db17e1e41932fe57f48bc91ac7f819675d73ec4869e57e1463"},
		{"capped-faulted", capped, "3652f8a2b929a89eb79bab67869e7dbdad9ca08951a5f27cb1d649fed150cf8d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Faults.Enabled() && rep.Crashes == 0 {
				t.Fatal("the crash plan applied no crash")
			}
			ratios := rep.Raw.HourlyQueuedRatio
			queued := 0
			for _, v := range ratios {
				if v > 0 {
					queued++
				}
			}
			if queued == 0 {
				t.Fatalf("no hour has a first-try miss: the pin is vacuous (%v)", ratios)
			}
			h := sha256.New()
			for _, v := range ratios {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s (%d hours, %d with a miss: %v)", got, tc.want, len(ratios), queued, ratios)
			}
		})
	}
}
