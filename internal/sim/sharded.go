package sim

import (
	"fmt"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
)

// Shards is the topology an Engine runs over: every shard is a full *State
// over its own indexed cluster, training shards first (indexes
// [0, NumTrain)), inference shards after. Each server has a fixed home
// shard (the shard whose ID range contains it) and a current owner shard
// (where it is attached right now); loans detach a server from its home
// inference shard and adopt it into a borrowing training shard's on-loan
// pool, and reclaims/returns reverse the transfer. The global capacity
// arbitrator (internal/arbiter) operates on this view.
//
// The unsharded run is the one-state topology (New): a single training
// State whose cluster also carries the inference pool, so every server's
// home and owner is shard 0 and there is no inference shard.
type Shards struct {
	// States holds one simulation state per shard, training shards first.
	States []*State
	// Scheds holds the per-training-shard scheduler instances.
	Scheds []Scheduler
	// NumTrain is the number of training shards.
	NumTrain int
	// Less is the shared queue priority order (identical across shard
	// scheduler instances of the same scheme).
	Less func(a, b *job.Job) bool
	// Tagged reports whether obs events carry shard decoration. Topologies
	// with one training shard and at most one inference shard are untagged,
	// so their event streams are byte-identical to one another.
	Tagged bool

	// Both indexes stay empty for the one-state topology: a missing entry
	// reads as shard 0, which is every server's home and owner there.
	home  map[int]int // server ID -> home shard (fixed)
	owner map[int]int // server ID -> current owner shard
}

// Train returns the training shard states.
func (sh *Shards) Train() []*State { return sh.States[:sh.NumTrain] }

// Inference returns the inference shard states.
func (sh *Shards) Inference() []*State { return sh.States[sh.NumTrain:] }

// Home returns server sid's fixed home shard index.
func (sh *Shards) Home(sid int) int { return sh.home[sid] }

// Owner returns the shard currently hosting server sid.
func (sh *Shards) Owner(sid int) int { return sh.owner[sid] }

// Transfer moves server sid into pool p of shard `to`: a same-shard move
// when the owner already is `to`, otherwise a detach/adopt pair that keeps
// the server's global identity while it crosses clusters. The server must
// be empty for cross-shard transfers and for any move a plain Move would
// refuse; a failure is state corruption and raises a structured violation.
func (sh *Shards) Transfer(sid, to int, p cluster.Pool) {
	from := sh.owner[sid]
	if from == to {
		if err := sh.States[to].Cluster.Move(sid, p); err != nil {
			sh.failTransfer(sid, to, p, err)
		}
		return
	}
	s, err := sh.States[from].Cluster.Detach(sid)
	if err != nil {
		sh.failTransfer(sid, to, p, err)
		return
	}
	if err := sh.States[to].Cluster.Adopt(s, p); err != nil {
		sh.failTransfer(sid, to, p, err)
		return
	}
	sh.owner[sid] = to
}

func (sh *Shards) failTransfer(sid, to int, p cluster.Pool, err error) {
	invariant.Fail(fmt.Sprintf("sim:transfer server=%d", sid), invariant.Violation{
		Rule:     invariant.RulePoolMembership,
		Subject:  fmt.Sprintf("server %d", sid),
		Expected: fmt.Sprintf("transfer to shard %d pool %v to succeed", to, p),
		Actual:   err.Error(),
	})
}

// ShardArbiter is the global capacity arbitrator driving a topology: it
// routes arriving jobs to training shards and runs the cross-shard
// loan/reclaim/return epoch. New seats an Orchestrator here for the
// one-state topology.
type ShardArbiter interface {
	// Route picks the training shard for an arriving job (deterministic:
	// least-loaded with lowest-ID tie-break).
	Route(sh *Shards, j *job.Job) int
	// Epoch runs one arbitration epoch over the sharded topology.
	Epoch(sh *Shards)
}

// ShardedConfig wires a sharded topology into NewSharded.
type ShardedConfig struct {
	// Train and Inf hold the per-shard clusters, each built over its own
	// contiguous slice of the global server ID space (training ranges
	// first, matching the unsharded ID layout).
	Train []*cluster.Cluster
	Inf   []*cluster.Cluster
	// Scheds holds one scheduler instance per training shard; each runs
	// over purely local shard state.
	Scheds []Scheduler
	// Arbiter routes jobs and brokers cross-shard loans. Required.
	Arbiter ShardArbiter
	// Orchestrate enables the periodic arbiter epoch (capacity loaning);
	// off, the arbiter only routes.
	Orchestrate bool
	// RefTopo is the unsharded reference cluster of the same global shape.
	// Fault timelines are generated from it (fault sub-seeds key on global
	// server IDs, so sharded runs draw the exact timelines an unsharded
	// run would) and domain-outage obs reads its rack/zone membership.
	RefTopo *cluster.Cluster
	// InfUtil reports each inference shard's own utilization at time t for
	// combined-usage accounting.
	InfUtil []func(t int64) float64
}

// NewShards builds the per-shard states and server-ownership index of a
// topology without an engine around them. NewSharded uses it; arbiter unit
// tests drive a ShardArbiter's Epoch against it directly.
func NewShards(sc ShardedConfig, cfg Config) *Shards {
	cfg = cfg.withDefaults()
	nT, nI := len(sc.Train), len(sc.Inf)
	sh := &Shards{
		Scheds:   sc.Scheds,
		NumTrain: nT,
		Tagged:   nT > 1 || nI > 1,
	}
	if nT > 0 {
		sh.Less = sc.Scheds[0].Less
	}
	if nT+nI > 1 {
		sh.home = make(map[int]int)
		sh.owner = make(map[int]int)
	}
	for i, c := range append(append([]*cluster.Cluster(nil), sc.Train...), sc.Inf...) {
		st := NewState(c, cfg.Scaling, cfg.PreemptOverhead)
		st.audit = cfg.Audit
		st.Obs = cfg.Obs
		st.Prof = cfg.Prof
		sh.States = append(sh.States, st)
		if sh.home == nil {
			continue
		}
		c.EachServer(func(s *cluster.Server) bool {
			sh.home[s.ID] = i
			sh.owner[s.ID] = i
			return true
		})
	}
	return sh
}
