// Package cluster models the GPU clusters Lyra schedules over: 8-GPU
// servers of heterogeneous GPU types, partitioned into a training pool, an
// inference pool, and an on-loan pool (inference servers temporarily under
// the training scheduler's control). It provides the whitelist bookkeeping
// the paper's orchestrator manipulates (§6, "Interface for capacity
// loaning") and the free-GPU accounting the job scheduler allocates from.
//
// The cluster is maintain-on-write: every pool keeps an ordered member set,
// a free-count bucket index (servers grouped by free GPUs, hosting work and
// idle kept apart: the best-fit index) and the set of servers hosting
// flexible GPUs (the make-room index), each an idset over server slots,
// and O(1) capacity counters (free/used/total/flexible
// GPUs, empty/partial server counts, per-GPU-type splits), all updated
// inside Allocate/Release/ReleaseJob/Move. Reads — placement lookups,
// capacity counts, pool iteration — never rescan or re-sort the cluster;
// AuditIndexes cross-checks every index against a from-scratch recount and
// is wired into the invariant audit layer, so all tests continuously prove
// the incremental bookkeeping equal to the naive one.
package cluster

import (
	"fmt"
	"slices"
	"strings"
)

// GPUType identifies a GPU model. Speeds are normalized to V100 = 1.0,
// matching the paper's observation that ~3 loaned T4 servers equal one
// training server in computational capability (§7.5).
type GPUType uint8

// Supported GPU types.
const (
	V100 GPUType = iota // training-cluster GPU (32 GB)
	T4                  // inference-cluster GPU (16 GB)
	A100                // optional high-end training GPU (40 GB)
	numGPUTypes
)

// Speed returns the relative training throughput of one GPU of this type,
// normalized so that V100 = 1.0.
func (g GPUType) Speed() float64 {
	switch g {
	case V100:
		return 1.0
	case T4:
		return 0.35
	case A100:
		return 1.6
	}
	return 0
}

// MemGB returns the GPU memory in gigabytes, used to decide whether a
// fungible job must shrink its local batch size when moved to a smaller GPU.
func (g GPUType) MemGB() int {
	switch g {
	case V100:
		return 32
	case T4:
		return 16
	case A100:
		return 40
	}
	return 0
}

func (g GPUType) String() string {
	switch g {
	case V100:
		return "V100"
	case T4:
		return "T4"
	case A100:
		return "A100"
	}
	return fmt.Sprintf("GPUType(%d)", uint8(g))
}

// ParseGPUType decodes a GPU model name as written in scenario specs and
// CLI flags ("V100", "T4", "A100", case-insensitive).
func ParseGPUType(s string) (GPUType, error) {
	for g := GPUType(0); g < numGPUTypes; g++ {
		if strings.EqualFold(s, g.String()) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown GPU type %q (valid: V100, T4, A100)", s)
}

// Pool identifies which scheduler currently controls a server.
type Pool uint8

// Server pools. Training and OnLoan servers are on the training scheduler's
// whitelist; Inference servers are controlled by the inference scheduler.
// Quarantine holds crashed servers: they belong to no scheduler until fault
// recovery moves them back into service.
const (
	PoolTraining Pool = iota
	PoolOnLoan
	PoolInference
	PoolQuarantine
	numPools
)

func (p Pool) String() string {
	switch p {
	case PoolTraining:
		return "training"
	case PoolOnLoan:
		return "on-loan"
	case PoolInference:
		return "inference"
	case PoolQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("Pool(%d)", uint8(p))
}

// ServersPerGPUCount is the default server size in both production clusters
// described by the paper (443 8-GPU training servers, 520 8-GPU inference
// servers).
const DefaultGPUsPerServer = 8

// Default failure-domain shape: racks of 8 servers, zones of 4 racks.
// Resolved inside New when Config leaves RackSize / ZoneRacks at zero.
const (
	DefaultRackSize  = 8
	DefaultZoneRacks = 4
)

// Server is one physical machine. The basic unit of capacity loaning is a
// whole server (§3), so a server is always wholly in one pool.
type Server struct {
	ID      int
	NumGPUs int
	GPU     GPUType
	Pool    Pool
	// ReturnTo and DownSince are the quarantine record, written by the crash
	// that moved the server into PoolQuarantine (sim.State.CrashServer): the
	// pool recovery returns it to, and when it went down. The record lives
	// on the server, so it travels with it through Detach/Adopt; the three
	// one-byte fields share a word.
	ReturnTo  Pool
	DownSince float64
	free      int
	// flexTotal caches the sum of held[].flex so TotalFlexible is O(1).
	flexTotal int
	// held lists the jobs with GPUs here, ascending by job ID, one entry
	// per job. A server hosts a handful of jobs, so reads scan it. It stays
	// nil until the first Allocate: most servers of a large cluster never
	// host a job within a run.
	held []holding
	// owner is the cluster maintaining pool/bucket indexes over this
	// server; every allocation change is mirrored into its counters. Nil
	// for standalone servers (reclaim fixtures, unit tests).
	owner *Cluster
}

// holding is one job's allocation on a server: gpus > 0 GPUs, of which flex
// belong to flexible (elastic surplus) workers.
type holding struct {
	job, gpus, flex int
}

// NewServer returns an empty server with all GPUs free.
func NewServer(id int, gpu GPUType, numGPUs int, pool Pool) *Server {
	return &Server{ID: id, GPU: gpu, NumGPUs: numGPUs, Pool: pool, free: numGPUs}
}

// Free returns the number of unallocated GPUs.
func (s *Server) Free() int { return s.free }

// Used returns the number of allocated GPUs.
func (s *Server) Used() int { return s.NumGPUs - s.free }

// Jobs returns the IDs of jobs with at least one GPU on this server, in
// ascending order, in a fresh slice.
func (s *Server) Jobs() []int { return s.AppendJobs(make([]int, 0, len(s.held))) }

// AppendJobs appends the IDs Jobs returns to dst and returns the result. A
// caller that changes this server's allocations while walking its jobs
// snapshots them here into a buffer it owns, without allocating.
func (s *Server) AppendJobs(dst []int) []int {
	for _, h := range s.held {
		dst = append(dst, h.job)
	}
	return dst
}

// find returns the index of job id's entry in held, or where it would be
// inserted, and whether it is there.
func (s *Server) find(id int) (int, bool) {
	for i, h := range s.held {
		if h.job >= id {
			return i, h.job == id
		}
	}
	return len(s.held), false
}

// lookup returns job id's entry (the zero holding when it holds nothing).
func (s *Server) lookup(id int) holding {
	if i, ok := s.find(id); ok {
		return s.held[i]
	}
	return holding{}
}

// JobGPUs returns the number of GPUs job id holds on this server.
func (s *Server) JobGPUs(id int) int { return s.lookup(id).gpus }

// FlexibleGPUs returns the number of GPUs held by flexible (elastic surplus)
// workers of job id on this server.
func (s *Server) FlexibleGPUs(id int) int { return s.lookup(id).flex }

// TotalFlexible returns the GPUs held by flexible workers of any job.
func (s *Server) TotalFlexible() int { return s.flexTotal }

// notify mirrors an allocation change into the owning cluster's indexes.
func (s *Server) notify(oldFree, flexDelta int) {
	if s.owner != nil {
		s.owner.serverChanged(s, oldFree, flexDelta)
	}
}

// Allocate assigns gpus GPUs on this server to job id. flexible marks the
// GPUs as belonging to elastic surplus workers, which the orchestrator may
// release without preempting the job (§5.3).
func (s *Server) Allocate(id, gpus int, flexible bool) error {
	if gpus <= 0 {
		return fmt.Errorf("cluster: allocate %d GPUs to job %d on server %d", gpus, id, s.ID)
	}
	if gpus > s.free {
		return fmt.Errorf("cluster: server %d has %d free GPUs, job %d wants %d", s.ID, s.free, id, gpus)
	}
	oldFree := s.free
	s.free -= gpus
	i, ok := s.find(id)
	if !ok {
		s.held = slices.Insert(s.held, i, holding{job: id})
	}
	s.held[i].gpus += gpus
	flexDelta := 0
	if flexible {
		s.held[i].flex += gpus
		s.flexTotal += gpus
		flexDelta = gpus
	}
	s.notify(oldFree, flexDelta)
	return nil
}

// Release frees gpus GPUs held by job id. Flexible GPUs are released first,
// mirroring Lyra's preference to scale in before preempting.
func (s *Server) Release(id, gpus int) error {
	i, ok := s.find(id)
	held := 0
	if ok {
		held = s.held[i].gpus
	}
	if gpus > held {
		return fmt.Errorf("cluster: job %d holds %d GPUs on server %d, released %d", id, held, s.ID, gpus)
	}
	if !ok {
		return nil
	}
	h := &s.held[i]
	oldFree := s.free
	s.free += gpus
	flexDelta := -min(h.flex, gpus)
	h.gpus -= gpus
	h.flex += flexDelta
	if h.gpus == 0 {
		s.held = slices.Delete(s.held, i, i+1)
	}
	s.flexTotal += flexDelta
	s.notify(oldFree, flexDelta)
	return nil
}

// ReleaseJob frees every GPU held by job id and reports how many were held.
func (s *Server) ReleaseJob(id int) int {
	i, ok := s.find(id)
	if !ok {
		return 0
	}
	h := s.held[i]
	s.held = slices.Delete(s.held, i, i+1)
	oldFree := s.free
	s.free += h.gpus
	s.flexTotal -= h.flex
	s.notify(oldFree, -h.flex)
	return h.gpus
}

// Cluster is the combined training + inference infrastructure. All mutation
// happens through methods so pool invariants (a server is in exactly one
// pool; free counts match allocations; indexes match the servers) cannot be
// violated from outside.
type Cluster struct {
	// servers is indexed by ID - firstID. Slots are nil where no server with
	// that ID is currently attached (after Detach, or for IDs adopted beyond
	// the initial range), so lookups stay O(1) under sharded topologies where
	// each shard owns a contiguous slice of the global ID space plus any
	// servers currently on loan to it.
	servers []*Server
	firstID int
	// shard labels which shard this cluster is in a sharded topology
	// (-1 when unsharded).
	shard int
	// gpusPerServer is the configured server size, shared by every server
	// the cluster was built with or can adopt.
	gpusPerServer int
	// n counts attached (non-nil) servers.
	n int
	// pools[p] is the set of pool p's server slots (ID - firstID), written
	// only by addServer/Detach/Move; iteration ascends by ID.
	pools [numPools]idset
	// buckets[p][f] holds pool p's servers with exactly f free GPUs that
	// host work (Used > 0), idle[p][f] the empty ones (f == NumGPUs): the
	// best-fit placement index, hosting servers before idle ones. A server's
	// allocation change moves it between sets (see serverChanged).
	buckets [numPools][]idset
	idle    [numPools][]idset
	// flexHosts[p] holds pool p's servers with TotalFlexible > 0: the
	// servers a make-room scale-in can take GPUs from.
	flexHosts [numPools]idset
	// O(1) capacity counters per pool.
	freeCnt  [numPools]int
	usedCnt  [numPools]int
	totalCnt [numPools]int
	flexCnt  [numPools]int
	// emptyCnt counts servers with Used == 0 (BusyServers). srvByType
	// splits membership by GPU type (pools are homogeneous in practice;
	// nothing here assumes it), so BestFit knows in O(1) whether a pool
	// holds any server of a type.
	emptyCnt  [numPools]int
	srvByType [numPools][numGPUTypes]int
	// Failure-domain topology, assigned once in New and immutable after:
	// rackOf/zoneOf map server ID -> domain index, racks/zones list each
	// domain's member server IDs in ascending order. Racks never span the
	// training/inference boundary (an outage of a training rack cannot
	// take inference capacity with it by construction), and zones group
	// whole racks within the same segment.
	rackOf []int
	zoneOf []int
	racks  [][]int
	zones  [][]int
}

// Config sizes a cluster. A zero GPUsPerServer means 8 GPUs per server, and
// zero GPU types mean V100 training and T4 inference servers; a zero server
// count builds no servers of that kind. DefaultConfig is the paper's
// production scale.
type Config struct {
	TrainingServers  int
	InferenceServers int
	GPUsPerServer    int
	TrainingGPU      GPUType
	InferenceGPU     GPUType
	// RackSize and ZoneRacks shape the failure-domain topology: servers
	// per rack and racks per zone. Zero means the defaults (8 servers per
	// rack, 4 racks per zone), resolved inside New so that configurations
	// written before the topology existed keep their content keys. The
	// json tags keep the zero values out of runner cache keys.
	RackSize  int `json:",omitempty"`
	ZoneRacks int `json:",omitempty"`
	// FirstID offsets server IDs: the cluster's servers get IDs [FirstID,
	// FirstID+TrainingServers+InferenceServers). Sharded topologies carve
	// the global ID space into contiguous per-shard ranges so a server
	// keeps its identity as loans move it between shard clusters. Zero (the
	// unsharded case) is omitted from runner cache keys.
	FirstID int `json:",omitempty"`
	// Shard labels the shard this cluster is in a sharded topology. It is
	// decoration only (obs, debugging); zero keys identically to unsharded.
	Shard int `json:",omitempty"`
}

// DefaultConfig is the production-scale configuration from §7.1.
func DefaultConfig() Config {
	return Config{
		TrainingServers:  443,
		InferenceServers: 520,
		GPUsPerServer:    DefaultGPUsPerServer,
		TrainingGPU:      V100,
		InferenceGPU:     T4,
	}
}

// TestbedConfig is the 64-GPU testbed from §7.1: four 8-GPU V100 training
// servers and four 8-GPU T4 inference servers.
func TestbedConfig() Config {
	return Config{
		TrainingServers:  4,
		InferenceServers: 4,
		GPUsPerServer:    DefaultGPUsPerServer,
		TrainingGPU:      V100,
		InferenceGPU:     T4,
	}
}

// New builds a cluster from cfg. Training servers get IDs [0,
// TrainingServers); inference servers follow. When both GPU types are left
// at their zero value (V100), the inference cluster defaults to T4,
// matching the production deployment of §2.1.
func New(cfg Config) *Cluster {
	if cfg.GPUsPerServer == 0 {
		cfg.GPUsPerServer = DefaultGPUsPerServer
	}
	if cfg.TrainingGPU == V100 && cfg.InferenceGPU == V100 {
		cfg.InferenceGPU = T4
	}
	c := &Cluster{firstID: cfg.FirstID, shard: cfg.Shard, gpusPerServer: cfg.GPUsPerServer}
	id := cfg.FirstID
	for i := 0; i < cfg.TrainingServers; i++ {
		c.addServer(NewServer(id, cfg.TrainingGPU, cfg.GPUsPerServer, PoolTraining))
		id++
	}
	for i := 0; i < cfg.InferenceServers; i++ {
		c.addServer(NewServer(id, cfg.InferenceGPU, cfg.GPUsPerServer, PoolInference))
		id++
	}
	c.assignDomains(cfg)
	return c
}

// Shard returns the shard label assigned at construction (zero when
// unsharded).
func (c *Cluster) Shard() int { return c.shard }

// GPUsPerServer returns the configured number of GPUs in one server.
func (c *Cluster) GPUsPerServer() int { return c.gpusPerServer }

// assignDomains computes the deterministic server -> rack -> zone mapping
// from the cluster shape: consecutive server IDs fill racks of RackSize
// within each segment (training first, then inference), and consecutive
// racks fill zones of ZoneRacks, also per segment. The mapping depends only
// on Config, so two clusters built from the same shape agree on it.
func (c *Cluster) assignDomains(cfg Config) {
	rackSize := cfg.RackSize
	if rackSize <= 0 {
		rackSize = DefaultRackSize
	}
	zoneRacks := cfg.ZoneRacks
	if zoneRacks <= 0 {
		zoneRacks = DefaultZoneRacks
	}
	n := len(c.servers)
	c.rackOf = make([]int, n)
	c.zoneOf = make([]int, n)
	// A rack or a zone is a run of consecutive IDs, so every member list is
	// a capacity-limited window of one shared ID slab.
	ids := make([]int, n)
	for off := range ids {
		ids[off] = off + c.firstID
	}
	for _, seg := range [][2]int{{0, cfg.TrainingServers}, {cfg.TrainingServers, n}} {
		for a := seg[0]; a < seg[1]; a += rackSize {
			if (a-seg[0])/rackSize%zoneRacks == 0 {
				end := min(a+rackSize*zoneRacks, seg[1])
				c.zones = append(c.zones, ids[a:end:end])
			}
			end := min(a+rackSize, seg[1])
			for off := a; off < end; off++ {
				c.rackOf[off], c.zoneOf[off] = len(c.racks), len(c.zones)-1
			}
			c.racks = append(c.racks, ids[a:end:end])
		}
	}
}

// NumRacks returns the number of racks in the failure-domain topology.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// NumZones returns the number of zones in the failure-domain topology.
func (c *Cluster) NumZones() int { return len(c.zones) }

// RackOf returns the rack index of server id (-1 for unknown IDs).
func (c *Cluster) RackOf(id int) int {
	off := id - c.firstID
	if off < 0 || off >= len(c.rackOf) {
		return -1
	}
	return c.rackOf[off]
}

// ZoneOf returns the zone index of server id (-1 for unknown IDs).
func (c *Cluster) ZoneOf(id int) int {
	off := id - c.firstID
	if off < 0 || off >= len(c.zoneOf) {
		return -1
	}
	return c.zoneOf[off]
}

// RackServers returns the server IDs of rack r in ascending order. The
// returned slice is the live index: callers must not modify it.
func (c *Cluster) RackServers(r int) []int {
	if r < 0 || r >= len(c.racks) {
		return nil
	}
	return c.racks[r]
}

// ZoneServers returns the server IDs of zone z in ascending order. The
// returned slice is the live index: callers must not modify it.
func (c *Cluster) ZoneServers(z int) []int {
	if z < 0 || z >= len(c.zones) {
		return nil
	}
	return c.zones[z]
}

// fileUnder returns the best-fit set a server of pool p with free free GPUs
// belongs in: idle[p][free] when that leaves it empty, buckets[p][free]
// otherwise.
func (c *Cluster) fileUnder(p Pool, s *Server, free int) *idset {
	side := &c.buckets[p]
	if free == s.NumGPUs {
		side = &c.idle[p]
	}
	for len(*side) <= free {
		*side = append(*side, idset{})
	}
	return &(*side)[free]
}

// mustDel removes s from one of its index sets. A missing entry is index
// corruption, which must fail loudly rather than silently desync.
func (c *Cluster) mustDel(set *idset, s *Server) {
	if !set.del(s.ID - c.firstID) {
		panic(fmt.Sprintf("cluster: server %d missing from its index", s.ID))
	}
}

// enterPool adds s (whose Pool field is already p) to every per-pool index
// and counter.
func (c *Cluster) enterPool(p Pool, s *Server) {
	c.pools[p].add(s.ID - c.firstID)
	c.fileUnder(p, s, s.free).add(s.ID - c.firstID)
	c.freeCnt[p] += s.free
	c.usedCnt[p] += s.Used()
	c.totalCnt[p] += s.NumGPUs
	c.flexCnt[p] += s.flexTotal
	c.srvByType[p][s.GPU]++
	if s.Used() == 0 {
		c.emptyCnt[p]++
	}
	if s.flexTotal > 0 {
		c.flexHosts[p].add(s.ID - c.firstID)
	}
}

// leavePool removes s from pool p's indexes and counters.
func (c *Cluster) leavePool(p Pool, s *Server) {
	c.mustDel(&c.pools[p], s)
	c.mustDel(c.fileUnder(p, s, s.free), s)
	c.freeCnt[p] -= s.free
	c.usedCnt[p] -= s.Used()
	c.totalCnt[p] -= s.NumGPUs
	c.flexCnt[p] -= s.flexTotal
	c.srvByType[p][s.GPU]--
	if s.Used() == 0 {
		c.emptyCnt[p]--
	}
	if s.flexTotal > 0 {
		c.mustDel(&c.flexHosts[p], s)
	}
}

// serverChanged is the single write-path hook: a server whose free count
// moved from oldFree to s.free (and whose flexible GPUs moved by flexDelta)
// is re-filed and every affected counter is updated in O(1).
func (c *Cluster) serverChanged(s *Server, oldFree, flexDelta int) {
	p := s.Pool
	c.flexCnt[p] += flexDelta
	switch {
	case flexDelta > 0 && s.flexTotal == flexDelta: // 0 -> >0
		c.flexHosts[p].add(s.ID - c.firstID)
	case flexDelta < 0 && s.flexTotal == 0: // >0 -> 0
		c.mustDel(&c.flexHosts[p], s)
	}
	if oldFree == s.free {
		return
	}
	c.mustDel(c.fileUnder(p, s, oldFree), s)
	c.fileUnder(p, s, s.free).add(s.ID - c.firstID)
	d := s.free - oldFree
	c.freeCnt[p] += d
	c.usedCnt[p] -= d
	if oldFree == s.NumGPUs {
		c.emptyCnt[p]--
	}
	if s.Used() == 0 {
		c.emptyCnt[p]++
	}
}

func (c *Cluster) addServer(s *Server) {
	s.owner = c
	off := s.ID - c.firstID
	for len(c.servers) <= off {
		c.servers = append(c.servers, nil)
	}
	if c.servers[off] != nil {
		panic(fmt.Sprintf("cluster: duplicate server %d", s.ID))
	}
	c.servers[off] = s
	c.n++
	c.enterPool(s.Pool, s)
}

// Server returns the server with the given ID, or nil.
func (c *Cluster) Server(id int) *Server {
	off := id - c.firstID
	if off < 0 || off >= len(c.servers) {
		return nil
	}
	return c.servers[off]
}

// NumServers returns the total number of servers in all pools.
func (c *Cluster) NumServers() int { return c.n }

// FastestGPU returns the fastest GPU type any attached server carries (V100
// for an empty cluster).
func (c *Cluster) FastestGPU() GPUType {
	best, speed := V100, 0.0
	for p := range c.srvByType {
		for g, n := range c.srvByType[p] {
			if s := GPUType(g).Speed(); n > 0 && s > speed {
				best, speed = GPUType(g), s
			}
		}
	}
	return best
}

// Servers returns a copy of all attached servers, in ID order. Use
// EachServer on hot paths that only iterate.
func (c *Cluster) Servers() []*Server {
	out := make([]*Server, 0, c.n)
	for _, s := range c.servers {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// EachServer calls fn for every server in ascending ID order, stopping
// early when fn returns false. The callback may change allocations but must
// not move servers between pools.
func (c *Cluster) EachServer(fn func(*Server) bool) {
	for _, s := range c.servers {
		if s == nil {
			continue
		}
		if !fn(s) {
			return
		}
	}
}

// Detach removes an empty server from the cluster entirely — pool index,
// counters, and ID slot — and returns it so another shard's cluster can
// Adopt it. This is the mechanics of a cross-shard transfer: the server
// keeps its global ID, the source cluster keeps a nil hole at its slot.
// Like Move-to-inference, detaching a server that still runs training work
// is refused: the caller must preempt or scale in first.
func (c *Cluster) Detach(id int) (*Server, error) {
	s := c.Server(id)
	if s == nil {
		return nil, fmt.Errorf("cluster: detach unknown server %d", id)
	}
	if s.Used() > 0 {
		return nil, fmt.Errorf("cluster: server %d still runs %d GPUs, cannot detach", id, s.Used())
	}
	c.leavePool(s.Pool, s)
	s.owner = nil
	c.servers[id-c.firstID] = nil
	c.n--
	return s, nil
}

// Adopt attaches a server detached from another cluster into pool p. The
// server keeps its global ID; IDs below the cluster's FirstID cannot be
// hosted (shard ID ranges ascend, and loans only ever park a server in a
// borrower whose range the ID maps into or return it home).
func (c *Cluster) Adopt(s *Server, p Pool) error {
	if s.owner != nil {
		return fmt.Errorf("cluster: adopt server %d still owned by another cluster", s.ID)
	}
	if s.ID < c.firstID {
		return fmt.Errorf("cluster: adopt server %d below first ID %d", s.ID, c.firstID)
	}
	if (p == PoolInference || p == PoolQuarantine) && s.Used() > 0 {
		return fmt.Errorf("cluster: server %d still runs %d GPUs of training work, cannot adopt into %v", s.ID, s.Used(), p)
	}
	s.Pool = p
	c.addServer(s)
	return nil
}

// PoolServers returns a copy of the servers currently in pool p, sorted by
// ID. The copy is safe to hold across pool moves; use EachPoolServer on hot
// paths that only iterate.
func (c *Cluster) PoolServers(p Pool) []*Server {
	out := make([]*Server, 0, c.pools[p].n)
	c.EachPoolServer(p, func(s *Server) bool { out = append(out, s); return true })
	return out
}

// EachPoolServer calls fn for every server in pool p in ascending ID order,
// stopping early when fn returns false. It iterates the live index without
// allocating: the callback may change allocations (scale-ins, releases — the
// pool set is not written by those) but must not move servers between pools
// — collect IDs first and move after iterating.
func (c *Cluster) EachPoolServer(p Pool, fn func(*Server) bool) {
	set := &c.pools[p]
	for i := set.next(0); i >= 0; i = set.next(i + 1) {
		if !fn(c.servers[i]) {
			return
		}
	}
}

// EachFlexibleServer calls fn for every server of pool p hosting flexible
// GPUs, in ascending ID order, stopping early when fn returns false: the
// servers EachPoolServer visits with TotalFlexible() > 0, without passing
// over the rest. The callback may release GPUs on the server it was handed,
// under EachPoolServer's rules.
func (c *Cluster) EachFlexibleServer(p Pool, fn func(*Server) bool) {
	set := &c.flexHosts[p]
	for i := set.next(0); i >= 0; i = set.next(i + 1) {
		if !fn(c.servers[i]) {
			return
		}
	}
}

// PoolSize returns the number of servers in pool p.
func (c *Cluster) PoolSize(p Pool) int { return c.pools[p].n }

// Move transfers a server between pools, implementing the whitelist update
// of §6. Moving a server out of the training scheduler's control
// (PoolOnLoan -> PoolInference, or into quarantine after a crash) requires
// it to be empty: the caller must have preempted or scaled in its jobs
// first.
func (c *Cluster) Move(id int, to Pool) error {
	s := c.Server(id)
	if s == nil {
		return fmt.Errorf("cluster: move unknown server %d", id)
	}
	if s.Pool == to {
		return nil
	}
	if (to == PoolInference || to == PoolQuarantine) && s.Used() > 0 {
		return fmt.Errorf("cluster: server %d still runs %d GPUs of training work, cannot move to %v", id, s.Used(), to)
	}
	c.leavePool(s.Pool, s)
	s.Pool = to
	c.enterPool(to, s)
	return nil
}

// FreeGPUs returns the number of free GPUs in pool p. O(1).
func (c *Cluster) FreeGPUs(p Pool) int { return c.freeCnt[p] }

// UsedGPUs returns the number of allocated GPUs in pool p. O(1).
func (c *Cluster) UsedGPUs(p Pool) int { return c.usedCnt[p] }

// TotalGPUs returns the number of GPUs in pool p. O(1).
func (c *Cluster) TotalGPUs(p Pool) int { return c.totalCnt[p] }

// FlexibleGPUs returns the GPUs held by flexible (elastic surplus) workers
// in pool p — the capacity §5.2 counts as available for resizing. O(1).
func (c *Cluster) FlexibleGPUs(p Pool) int { return c.flexCnt[p] }

// BusyServers returns the number of pool p's servers hosting at least one
// allocated GPU. O(1).
func (c *Cluster) BusyServers(p Pool) int { return c.pools[p].n - c.emptyCnt[p] }

// BestFit returns the best-fit server in pool p for one worker that needs
// need(gpu) GPUs on a server of type gpu, or nil. Preference order matches
// the placement tie-break contract (package place): non-empty servers
// before empty ones, then least free GPUs, then lowest ID. fixed, when
// non-nil, restricts candidates to one GPU type; exclude lists servers that
// must not be used.
//
// The lookup walks the hosting sets upward from the smallest possibly-fitting
// free count, then the idle sets the same way, and returns the first
// eligible server: sets ascend by free count and iterate by ID, so that is
// the exact winner of that order, whatever mix of server sizes the pool holds.
// With B = GPUs per server distinct free counts this is O(B + ineligible
// servers passed over); nothing is scanned past the answer.
func (c *Cluster) BestFit(p Pool, need func(GPUType) int, fixed *GPUType, exclude []int) *Server {
	minNeed := -1
	if fixed != nil {
		if c.srvByType[p][*fixed] == 0 {
			return nil
		}
		minNeed = need(*fixed)
	} else {
		for g := GPUType(0); g < numGPUTypes; g++ {
			if c.srvByType[p][g] == 0 {
				continue
			}
			if n := need(g); minNeed < 0 || n < minNeed {
				minNeed = n
			}
		}
	}
	if minNeed < 0 {
		return nil // empty pool
	}
	if minNeed == 0 {
		minNeed = 1 // a worker occupies at least one GPU
	}
	for _, side := range [2][]idset{c.buckets[p], c.idle[p]} {
		for f := minNeed; f < len(side); f++ {
			for i := side[f].next(0); i >= 0; i = side[f].next(i + 1) {
				s := c.servers[i]
				if fixed != nil && s.GPU != *fixed {
					continue
				}
				if s.free < need(s.GPU) {
					continue
				}
				if !slices.Contains(exclude, s.ID) {
					return s
				}
			}
		}
	}
	return nil
}

// CheckInvariants verifies internal consistency and returns the first
// violation found. It is used by tests and the simulator's debug mode.
// Index/counter agreement with a from-scratch recount is checked separately
// by AuditIndexes; the invariant audit layer runs both.
func (c *Cluster) CheckInvariants() error {
	seen := make(map[int]Pool)
	for p := Pool(0); p < numPools; p++ {
		for i := c.pools[p].next(0); i >= 0; i = c.pools[p].next(i + 1) {
			s := c.Server(i + c.firstID)
			if s == nil {
				return fmt.Errorf("pool %v indexes slot %d, which holds no server", p, i)
			}
			if s.Pool != p {
				return fmt.Errorf("server %d indexed under %v but Pool=%v", s.ID, p, s.Pool)
			}
			if dup, ok := seen[s.ID]; ok {
				return fmt.Errorf("server %d in two pools: %v and %v", s.ID, dup, p)
			}
			seen[s.ID] = p
		}
	}
	attached := 0
	for _, s := range c.servers {
		if s == nil {
			continue
		}
		attached++
		if _, ok := seen[s.ID]; !ok {
			return fmt.Errorf("server %d missing from pool index", s.ID)
		}
		sum, flexSum := 0, 0
		for i, h := range s.held {
			if i > 0 && h.job <= s.held[i-1].job {
				return fmt.Errorf("server %d: job %d listed after job %d", s.ID, h.job, s.held[i-1].job)
			}
			if h.gpus <= 0 || h.flex < 0 || h.flex > h.gpus {
				return fmt.Errorf("server %d: job %d holds %d GPUs, %d flexible", s.ID, h.job, h.gpus, h.flex)
			}
			sum += h.gpus
			flexSum += h.flex
		}
		if sum+s.free != s.NumGPUs {
			return fmt.Errorf("server %d: alloc %d + free %d != %d GPUs", s.ID, sum, s.free, s.NumGPUs)
		}
		if flexSum != s.flexTotal {
			return fmt.Errorf("server %d: flexible sum %d != cached total %d", s.ID, flexSum, s.flexTotal)
		}
	}
	if attached != c.n {
		return fmt.Errorf("%d attached servers, counter says %d", attached, c.n)
	}
	if len(seen) != attached {
		return fmt.Errorf("%d servers in pool indexes, %d attached", len(seen), attached)
	}
	return nil
}

// AuditIndexes recounts every incrementally-maintained counter and index
// from scratch — per-pool free/used/total/flexible GPUs, empty-server
// counts, per-type membership, the membership, side (hosting or idle) and
// member count of every free-count set, and the membership of every
// flexible-server set — and returns the first
// disagreement with the maintained values. It is the
// equivalence oracle keeping the maintain-on-write fast paths honest: the
// invariant audit layer calls it after every audited transition, so any
// write path that forgets to update an index fails the whole test suite at
// the transition that introduced the drift.
func (c *Cluster) AuditIndexes() error {
	for p := Pool(0); p < numPools; p++ {
		var members, free, used, total, flex, empty, flexHosts int
		var byType [numGPUTypes]int
		for i := c.pools[p].next(0); i >= 0; i = c.pools[p].next(i + 1) {
			s := c.servers[i]
			members++
			free += s.free
			used += s.Used()
			total += s.NumGPUs
			flex += s.flexTotal
			byType[s.GPU]++
			if s.Used() == 0 {
				empty++
			}
			if s.flexTotal > 0 {
				flexHosts++
			}
		}
		// Every flexible-index member is a pool member hosting flexible
		// GPUs, and there are as many as the recount: the sets are equal.
		indexed := 0
		for i := c.flexHosts[p].next(0); i >= 0; i = c.flexHosts[p].next(i + 1) {
			if s := c.Server(i + c.firstID); s == nil || s.Pool != p || s.flexTotal == 0 {
				return fmt.Errorf("pool %v: flexible index holds slot %d, not a server of the pool hosting flexible GPUs", p, i)
			}
			indexed++
		}
		if indexed != flexHosts || indexed != c.flexHosts[p].n {
			return fmt.Errorf("pool %v: flexible index holds %d servers (counts %d), recount %d", p, indexed, c.flexHosts[p].n, flexHosts)
		}
		if free != c.freeCnt[p] || used != c.usedCnt[p] || total != c.totalCnt[p] || flex != c.flexCnt[p] {
			return fmt.Errorf("pool %v: counters free/used/total/flex = %d/%d/%d/%d, recount = %d/%d/%d/%d",
				p, c.freeCnt[p], c.usedCnt[p], c.totalCnt[p], c.flexCnt[p], free, used, total, flex)
		}
		if empty != c.emptyCnt[p] {
			return fmt.Errorf("pool %v: empty counter = %d, recount = %d", p, c.emptyCnt[p], empty)
		}
		if byType != c.srvByType[p] {
			return fmt.Errorf("pool %v: per-type counters %v, recount %v", p, c.srvByType[p], byType)
		}
		if members != c.pools[p].n {
			return fmt.Errorf("pool %v: set counts %d members, holds %d", p, c.pools[p].n, members)
		}
		inBuckets := 0
		for k, side := range [2][]idset{c.buckets[p], c.idle[p]} {
			for f := range side {
				found := 0
				for i := side[f].next(0); i >= 0; i = side[f].next(i + 1) {
					s := c.Server(i + c.firstID)
					if s == nil {
						return fmt.Errorf("pool %v bucket %d indexes slot %d, which holds no server", p, f, i)
					}
					if s.Pool != p || s.free != f || (s.Used() == 0) != (k == 1) {
						return fmt.Errorf("pool %v bucket %d (idle=%v) holds server %d of pool %v with %d of %d GPUs free",
							p, f, k == 1, s.ID, s.Pool, s.free, s.NumGPUs)
					}
					found++
				}
				if found != side[f].n {
					return fmt.Errorf("pool %v bucket %d (idle=%v): set counts %d members, holds %d", p, f, k == 1, side[f].n, found)
				}
				inBuckets += found
			}
		}
		if inBuckets != members {
			return fmt.Errorf("pool %v: %d servers in buckets, %d in pool index", p, inBuckets, members)
		}
	}
	return nil
}
