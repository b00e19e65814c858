package lyra

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lyra/internal/obs"
)

// TestHysteresisStreamPinned pins the bytes of two quarantine-hysteresis
// runs: an audited 16+16 run and a 2+2 sharded one, both under a one-day
// trace with a crash every half hour per server, rack outages and all three
// degraded-mode policies on. Each digest is the sha256 of the event stream
// followed by the bits of LostCapacityGPUSec, so any change to which
// recoveries are held, when a held server returns, or how its downtime is
// counted shows here. The plan is dense enough that servers are held
// hundreds of times and some scheduled crashes strike a server still held
// in quarantine (the hysteresis run applies fewer crashes than the same run
// without it).
func TestHysteresisStreamPinned(t *testing.T) {
	tcfg := DefaultTraceConfig(5)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 128
	tr := GenerateTrace(tcfg)

	base := DefaultConfig()
	base.Cluster = ClusterConfig{TrainingServers: 16, InferenceServers: 16}
	base.Events = true
	base.Faults = FaultPlan{Seed: 3, ServerMTBF: 1800, ServerMTTR: 600,
		RackOutMTBF: 21600, RackMTTR: 900}
	base.RestartBackoff = true
	base.QuarantineHysteresis = true
	base.EmergencyReclaim = true

	audited := base
	audited.Audit = true
	sharded := base
	sharded.TrainingShards, sharded.InferenceShards = 2, 2

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"audited-16+16", audited, "30367c7edc602652a9b6bcb21e6bbb05f5c1836a068edba68d81272fd7a0ee5d"},
		{"sharded-2+2", sharded, "e678c7c051484d75c9dcbc3f6773d33c016ee468cafbfc9829fbc202e93b1011"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadJSONL(bytes.NewReader(rep.Events))
			if err != nil {
				t.Fatal(err)
			}
			_, counts := obs.CountByKind(events)
			if n := counts[obs.KindFaultHolddown]; n < 100 {
				t.Errorf("%d fault.holddown events, want at least 100", n)
			}
			plainCfg := tc.cfg
			plainCfg.QuarantineHysteresis = false
			plainCfg.Events, plainCfg.Audit = false, false
			plain, err := Run(plainCfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Crashes <= rep.Crashes {
				t.Errorf("%d crashes applied with hysteresis, %d without: no scheduled crash struck a held server",
					rep.Crashes, plain.Crashes)
			}
			h := sha256.New()
			h.Write(rep.Events)
			binary.Write(h, binary.LittleEndian, math.Float64bits(rep.LostCapacityGPUSec))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s (%d events, %d hold-downs, lost %v GPU-s)",
					got, tc.want, len(events), counts[obs.KindFaultHolddown], rep.LostCapacityGPUSec)
			}
		})
	}
}
