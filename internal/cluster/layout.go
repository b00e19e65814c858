package cluster

// Layout is the ID layout of a cluster's servers, a function of its shape
// alone: training servers take IDs [FirstID, FirstID+Training), inference
// servers the Inference IDs after them. Failure domains are runs of
// consecutive IDs within each of those two segments: racks of RackSize
// servers and zones of ZoneRacks racks, both restarting at the
// training/inference boundary, so an outage never couples the two pools, a
// short remainder gets its own rack or zone, and every zone is whole racks.
// A Layout answers fault.Topology without building a cluster, and a
// cluster's Layout is its home ID range: the IDs it was built with, which
// stay its own while loans move servers between shard clusters.
type Layout struct {
	FirstID, Training, Inference, RackSize, ZoneRacks int
}

// Layout returns the layout a cluster built from c has, with the rack and
// zone defaults resolved.
func (c Config) Layout() Layout {
	l := Layout{c.FirstID, c.TrainingServers, c.InferenceServers, c.RackSize, c.ZoneRacks}
	if l.RackSize <= 0 {
		l.RackSize = DefaultRackSize
	}
	if l.ZoneRacks <= 0 {
		l.ZoneRacks = DefaultZoneRacks
	}
	return l
}

// NumServers returns the number of IDs the layout spans.
func (l Layout) NumServers() int { return l.Training + l.Inference }

// Contains reports whether server id is one of the layout's IDs.
func (l Layout) Contains(id int) bool { return id >= l.FirstID && id < l.FirstID+l.NumServers() }

// NumRacks returns the number of racks.
func (l Layout) NumRacks() int { return l.runs(l.RackSize) }

// NumZones returns the number of zones.
func (l Layout) NumZones() int { return l.runs(l.RackSize * l.ZoneRacks) }

// Rack returns rack r's server IDs [lo, hi), empty for an unknown rack.
func (l Layout) Rack(r int) (lo, hi int) { return l.run(r, l.RackSize) }

// Zone returns zone z's server IDs [lo, hi), empty for an unknown zone.
func (l Layout) Zone(z int) (lo, hi int) { return l.run(z, l.RackSize*l.ZoneRacks) }

// runs counts the runs of width IDs the two segments split into.
func (l Layout) runs(width int) int {
	return (l.Training+width-1)/width + (l.Inference+width-1)/width
}

// run returns the i-th run of width consecutive IDs, training segment first.
func (l Layout) run(i, width int) (lo, hi int) {
	start := l.FirstID
	for _, n := range [2]int{l.Training, l.Inference} {
		runs := (n + width - 1) / width
		if i >= 0 && i < runs {
			lo = start + i*width
			return lo, min(lo+width, start+n)
		}
		i, start = i-runs, start+n
	}
	return 0, 0
}
