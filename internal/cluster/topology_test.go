package cluster

import (
	"math/rand"
	"testing"

	"lyra/internal/fault"
)

// Both the value and the cluster answer the fault schedule's questions.
var (
	_ fault.Topology = Layout{}
	_ fault.Topology = (*Cluster)(nil)
)

// TestTopologyDefaults: with no rack/zone configuration the cluster shapes
// itself into 8-server racks grouped 4 racks to a zone, and its layout is
// the one its configuration computes without building it.
func TestTopologyDefaults(t *testing.T) {
	cfg := Config{TrainingServers: 16, InferenceServers: 8}
	c := New(cfg)
	if got := c.NumRacks(); got != 3 { // 16/8 = 2 training + 8/8 = 1 inference
		t.Fatalf("NumRacks = %d, want 3", got)
	}
	if got := c.NumZones(); got != 2 { // zones never span the pool boundary either
		t.Fatalf("NumZones = %d, want 2", got)
	}
	if c.Layout() != cfg.Layout() {
		t.Fatalf("cluster layout %+v, configuration computes %+v", c.Layout(), cfg.Layout())
	}
	for _, r := range []int{-1, 3} {
		if lo, hi := c.Rack(r); lo != hi {
			t.Errorf("unknown rack %d spans [%d, %d)", r, lo, hi)
		}
	}
	if lo, hi := c.Zone(2); lo != hi {
		t.Errorf("unknown zone 2 spans [%d, %d)", lo, hi)
	}
}

// TestTopologyNeverSpansPoolBoundary: a short training remainder gets its
// own rack rather than being padded with inference servers.
func TestTopologyNeverSpansPoolBoundary(t *testing.T) {
	c := New(Config{TrainingServers: 12, InferenceServers: 6, RackSize: 8})
	want := [][2]int{{0, 8}, {8, 12}, {12, 18}}
	if c.NumRacks() != len(want) {
		t.Fatalf("NumRacks = %d, want %d", c.NumRacks(), len(want))
	}
	for r, w := range want {
		if lo, hi := c.Rack(r); [2]int{lo, hi} != w {
			t.Errorf("rack %d = [%d, %d), want %v", r, lo, hi, w)
		}
	}
}

// TestTopologyPartition: for random shapes, the racks and zones partition
// each segment into runs that never straddle the training/inference
// boundary, every zone is whole racks, and both equal a per-server
// assignment that fills racks and zones one server at a time.
func TestTopologyPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		cfg := Config{TrainingServers: rng.Intn(60), InferenceServers: rng.Intn(60),
			RackSize: rng.Intn(10), ZoneRacks: rng.Intn(6), FirstID: rng.Intn(1000)}
		l := cfg.Layout()
		n, boundary := l.NumServers(), l.FirstID+cfg.TrainingServers

		// The reference: walk the servers, opening a rack every RackSize
		// servers into a segment and a zone every ZoneRacks racks.
		rackOf, zoneOf := make([]int, n), make([]int, n)
		rack, zone := -1, -1
		for off := range n {
			k := off
			if off >= cfg.TrainingServers {
				k -= cfg.TrainingServers
			}
			if k%l.RackSize == 0 {
				rack++
				if k/l.RackSize%l.ZoneRacks == 0 {
					zone++
				}
			}
			rackOf[off], zoneOf[off] = rack, zone
		}

		rackEdge := map[int]bool{}
		for _, dom := range []struct {
			name  string
			count int
			span  func(int) (int, int)
			of    []int
		}{{"rack", l.NumRacks(), l.Rack, rackOf}, {"zone", l.NumZones(), l.Zone, zoneOf}} {
			want := -1
			if n > 0 {
				want = dom.of[n-1]
			}
			if dom.count != want+1 {
				t.Fatalf("%+v: %d %ss, reference has %d", cfg, dom.count, dom.name, want+1)
			}
			next := l.FirstID
			for d := 0; d < dom.count; d++ {
				lo, hi := dom.span(d)
				switch {
				case lo != next || hi <= lo:
					t.Fatalf("%+v: %s %d = [%d, %d) does not follow on at %d", cfg, dom.name, d, lo, hi, next)
				case lo < boundary && hi > boundary:
					t.Fatalf("%+v: %s %d = [%d, %d) straddles the boundary %d", cfg, dom.name, d, lo, hi, boundary)
				case dom.name == "rack":
					rackEdge[lo], rackEdge[hi] = true, true
				case !rackEdge[lo] || !rackEdge[hi]:
					t.Fatalf("%+v: zone %d = [%d, %d) cuts a rack", cfg, d, lo, hi)
				}
				for sid := lo; sid < hi; sid++ {
					if got := dom.of[sid-l.FirstID]; got != d {
						t.Fatalf("%+v: server %d in %s %d, reference says %d", cfg, sid, dom.name, d, got)
					}
				}
				next = hi
			}
			if next != l.FirstID+n {
				t.Fatalf("%+v: %ss end at %d, servers at %d", cfg, dom.name, next, l.FirstID+n)
			}
		}
	}
}

// TestTopologySatisfiesFaultInterface: a cluster answers the fault
// schedule's questions from its layout, whatever servers it holds now.
func TestTopologySatisfiesFaultInterface(t *testing.T) {
	c := New(Config{TrainingServers: 8, InferenceServers: 0, RackSize: 4, FirstID: 16})
	if _, err := c.Detach(20); err != nil {
		t.Fatal(err)
	}
	for r, w := range [][2]int{{16, 20}, {20, 24}} {
		if lo, hi := c.Rack(r); [2]int{lo, hi} != w {
			t.Errorf("Rack(%d) = [%d, %d), want %v", r, lo, hi, w)
		}
	}
	if lo, hi := c.Zone(0); lo != 16 || hi != 24 {
		t.Errorf("Zone(0) = [%d, %d), want [16, 24)", lo, hi)
	}
}
