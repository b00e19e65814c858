package place_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/job"
	. "lyra/internal/place"
)

// pinTypes are the (training, inference) GPU type pairs a pinned instance
// draws from: the production V100/T4 cluster, an A100 training tier over T4
// or V100 inference, and an A100 inference tier.
var pinTypes = [][2]cluster.GPUType{
	{cluster.V100, cluster.T4},
	{cluster.A100, cluster.T4},
	{cluster.A100, cluster.V100},
	{cluster.V100, cluster.A100},
}

// pinInstance builds one seeded placement instance: a small cluster of 1-10
// training and 1-10 inference servers with some inference servers on loan,
// sometimes a server of another size or GPU type adopted into a
// schedulable pool (so a pool can mix types and sizes), and random partial
// allocations, some flexible, by jobs 1-12 (the jobs scaled out later reuse
// those IDs, so a placement can grow a job's own holding).
func pinInstance(rng *rand.Rand) *cluster.Cluster {
	types := pinTypes[rng.Intn(len(pinTypes))]
	cfg := cluster.Config{
		TrainingServers:  1 + rng.Intn(10),
		InferenceServers: 1 + rng.Intn(10),
		GPUsPerServer:    []int{8, 8, 8, 4}[rng.Intn(4)],
		TrainingGPU:      types[0],
		InferenceGPU:     types[1],
	}
	c := cluster.New(cfg)
	n := cfg.TrainingServers + cfg.InferenceServers
	for id := cfg.TrainingServers; id < n; id++ {
		if rng.Intn(2) == 0 {
			if err := c.Move(id, cluster.PoolOnLoan); err != nil {
				panic(err)
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		id := rng.Intn(n)
		s, err := c.Detach(id)
		if err != nil {
			panic(err)
		}
		gpus := []int{4, 8, 16}[rng.Intn(3)]
		gpu := cluster.GPUType(rng.Intn(3))
		pool := []cluster.Pool{cluster.PoolTraining, cluster.PoolOnLoan, s.Pool}[rng.Intn(3)]
		if err := c.Adopt(cluster.NewServer(id, gpu, gpus, pool), pool); err != nil {
			panic(err)
		}
	}
	for k := rng.Intn(3 * n); k > 0; k-- {
		s := c.Server(rng.Intn(n))
		if s.Pool != cluster.PoolTraining && s.Pool != cluster.PoolOnLoan || s.Free() == 0 {
			continue
		}
		if err := s.Allocate(1+rng.Intn(12), 1+rng.Intn(s.Free()), rng.Intn(3) == 0); err != nil {
			panic(err)
		}
	}
	return c
}

// pinOptions draws the placement options of one call: either pool
// preferred, AllowOther, the single-type rule (always for a non-hetero job,
// sometimes for a hetero one), a GPU pin to any type (present or not), 0-3
// excluded servers and the flexible mark.
func pinOptions(rng *rand.Rand, j *job.Job, nServers int) Options {
	opt := Options{
		PreferPool:    []cluster.Pool{cluster.PoolTraining, cluster.PoolOnLoan}[rng.Intn(2)],
		AllowOther:    rng.Intn(2) == 0,
		SingleGPUType: !j.Hetero || rng.Intn(4) == 0,
		Flexible:      rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		opt.FixedGPU = cluster.PinGPU(cluster.GPUType(rng.Intn(3)))
	}
	for k := rng.Intn(4); k > 0; k-- {
		opt.Exclude = append(opt.Exclude, rng.Intn(nServers))
	}
	return opt
}

// writeWorkers hashes a placement result: the success flag and every
// worker's fields, including the caller's prefix the call appended to.
func writeWorkers(h hash.Hash, ws []job.Worker, ok bool) {
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(len(ws))
	if ok {
		put(1)
	} else {
		put(0)
	}
	for _, w := range ws {
		flex := 0
		if w.Flexible {
			flex = 1
		}
		put(w.Server)
		put(int(w.GPU))
		put(w.GPUs)
		put(flex)
	}
}

// writeCluster hashes every server's state: pool, GPU type, size, free and
// flexible GPUs, and its ID-ordered holdings with each job's GPUs and
// flexible GPUs.
func writeCluster(h hash.Hash, c *cluster.Cluster) {
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	c.EachServer(func(s *cluster.Server) bool {
		put(s.ID)
		put(int(s.Pool))
		put(int(s.GPU))
		put(s.NumGPUs)
		put(s.Free())
		put(s.TotalFlexible())
		jobs := s.Jobs()
		put(len(jobs))
		for _, id := range jobs {
			put(id)
			put(s.JobGPUs(id))
			put(s.FlexibleGPUs(id))
		}
		return true
	})
}

// pending is the first ID of the gangs' jobs. A gang is a pending job's
// base demand, placed before the job holds any GPU, so each gang gets an ID
// no server holds; a scale-out grows a running job, so AppendUpTo places
// jobs 1-12, which the instance's allocations hold.
const pending = 100

// placementPin is the sha256 TestPlacementPinned records.
const placementPin = "83897aa39b62f4827aca7f70c07901a2758c9b83e297ea4172f9c0037cc475e6"

// TestPlacementPinned pins Gang, AppendGang and AppendUpTo bit for bit over
// 600 seeded instances of five calls each: every call's result (the
// caller's prefix, the placed workers, the success flag) and every server's
// free, held and flexible GPUs after it. The instances cover both
// schedulable pools, V100, T4 and A100 servers (pools of mixed type and
// size too), hetero and single-type jobs, pinned and unpinned, AllowOther,
// Exclude, Flexible, and gangs both within and beyond the capacity left, so
// failing gangs are in the stream: a change to how placement searches must
// not move one worker or leave one GPU behind.
func TestPlacementPinned(t *testing.T) {
	h := sha256.New()
	placed, fails, partial := 0, 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := pinInstance(rng)
		nServers := c.NumServers()
		for call := 0; call < 5; call++ {
			j := job.New(1+rng.Intn(12), 0, job.Generic, []int{1, 1, 2, 2, 3, 4, 8}[rng.Intn(7)], 1, 8, 100)
			j.Hetero = rng.Intn(4) == 0
			opt := pinOptions(rng, j, nServers)
			n := rng.Intn(2 + c.FreeGPUs(cluster.PoolTraining)/j.GPUsPerWorker)
			dst := make([]job.Worker, rng.Intn(3), 8)
			for i := range dst {
				dst[i] = job.Worker{Server: -1 - i, GPUs: 99}
			}
			var ws []job.Worker
			ok, prefix := true, len(dst)
			switch rng.Intn(3) {
			case 0:
				j.ID = pending + call
				ws, ok = Gang(c, j, n, opt)
				prefix = 0
			case 1:
				j.ID = pending + call
				ws, ok = AppendGang(dst, c, j, n, opt)
			default:
				ws = AppendUpTo(dst, c, j, n, opt)
				if len(ws)-prefix < n {
					partial++
				}
			}
			if ok && len(ws) > prefix {
				placed++
			}
			if !ok {
				fails++
			}
			writeWorkers(h, ws, ok)
			writeCluster(h, c)
			if err := c.AuditIndexes(); err != nil {
				t.Fatalf("seed %d call %d: %v", seed, call, err)
			}
		}
	}
	if placed < 100 || fails < 100 || partial < 100 {
		t.Fatalf("%d calls placed workers, %d gangs failed, %d scale-outs were partial: the instances must exercise all three",
			placed, fails, partial)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != placementPin {
		t.Errorf("placement hash = %s, want %s", got, placementPin)
	}
}
