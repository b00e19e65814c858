package testbed

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lyra/internal/fault"
	"lyra/internal/obs"
)

// ContainerState tracks a container through its lifecycle.
type ContainerState int32

// Container lifecycle states.
const (
	ContainerLaunching ContainerState = iota
	ContainerRunning
	ContainerKilled
	ContainerDone
)

// Container is one worker container: a goroutine that pays a launch latency
// (image pull, process start) before reporting ready, then idles until
// killed or released. Training progress is accounted by the job controller,
// not the container, mirroring how the prototype's controller process owns
// worker coordination (§6).
type Container struct {
	ID       int
	JobID    int
	Server   int
	GPUs     int
	Flexible bool

	state int32 // atomic ContainerState
	done  chan struct{}
}

// State returns the container's current lifecycle state.
func (c *Container) State() ContainerState {
	return ContainerState(atomic.LoadInt32(&c.state))
}

// ResourceManager is the YARN-lite layer: it owns node bookkeeping, runs
// container goroutines with launch latency, and reports readiness to the
// per-job controllers.
type ResourceManager struct {
	clock       *Clock
	launchDelay float64 // simulated seconds from launch to ready

	// Obs is the optional event recorder for container transitions. Set
	// it before the first Launch; the readiness event is emitted from the
	// container goroutine, which the recorder serializes.
	Obs *obs.Recorder
	// Injector optionally injects container-launch failures. Set it before
	// the first Launch; nil injects nothing.
	Injector *fault.Injector

	mu         sync.Mutex
	nextID     int
	containers map[int]*Container
	byJob      map[int]map[int]*Container
	launched   int64
	killed     int64
}

// NewResourceManager returns a resource manager on the given clock.
// launchDelay is the simulated container start latency in seconds.
func NewResourceManager(clock *Clock, launchDelay float64) *ResourceManager {
	return &ResourceManager{
		clock:       clock,
		launchDelay: launchDelay,
		containers:  make(map[int]*Container),
		byJob:       make(map[int]map[int]*Container),
	}
}

// Launch starts a container for jobID on server with the given GPUs. The
// returned container becomes Running after the launch latency; ready is
// closed at that point. With a fault injector installed, a launch may fail
// (fault.ErrInjectedLaunch) — callers retry with backoff and eventually
// requeue the job through the checkpoint-restart path.
func (rm *ResourceManager) Launch(jobID, server, gpus int, flexible bool) (*Container, error) {
	if rm.Injector.LaunchFails() {
		if rm.Obs.Enabled() {
			rm.Obs.Emit(obs.JobEv(rm.clock.Now(), obs.KindFaultLaunch, jobID).WithF(obs.Fields{
				"server": server, "gpus": gpus,
			}))
			rm.Obs.Add("fault.launch_failures", 1)
		}
		return nil, fmt.Errorf("testbed: launch container for job %d on server %d: %w", jobID, server, fault.ErrInjectedLaunch)
	}
	rm.mu.Lock()
	rm.nextID++
	c := &Container{
		ID: rm.nextID, JobID: jobID, Server: server, GPUs: gpus, Flexible: flexible,
		done: make(chan struct{}),
	}
	rm.containers[c.ID] = c
	if rm.byJob[jobID] == nil {
		rm.byJob[jobID] = make(map[int]*Container)
	}
	rm.byJob[jobID][c.ID] = c
	rm.launched++
	rm.mu.Unlock()

	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.clock.Now(), obs.KindContainerLaunch, jobID).WithF(obs.Fields{
			"container": c.ID, "server": server, "gpus": gpus, "flexible": flexible,
		}))
		rm.Obs.Add("testbed.containers_launched", 1)
	}
	go func() {
		select {
		case <-rm.clock.After(rm.launchDelay):
			if atomic.CompareAndSwapInt32(&c.state, int32(ContainerLaunching), int32(ContainerRunning)) &&
				rm.Obs.Enabled() {
				rm.Obs.Emit(obs.JobEv(rm.clock.Now(), obs.KindContainerReady, c.JobID).WithF(obs.Fields{
					"container": c.ID, "server": c.Server,
				}))
			}
		case <-c.done:
		}
	}()
	return c, nil
}

// Kill terminates a container (preemption or scale-in).
func (rm *ResourceManager) Kill(id int) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	c, ok := rm.containers[id]
	if !ok {
		return fmt.Errorf("testbed: kill unknown container %d", id)
	}
	rm.removeLocked(c, ContainerKilled)
	rm.killed++
	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.clock.Now(), obs.KindContainerKill, c.JobID).WithF(obs.Fields{
			"container": c.ID, "server": c.Server,
		}))
		rm.Obs.Add("testbed.containers_killed", 1)
	}
	return nil
}

// Release completes a container normally (job finished).
func (rm *ResourceManager) Release(id int) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	c, ok := rm.containers[id]
	if !ok {
		return fmt.Errorf("testbed: release unknown container %d", id)
	}
	rm.removeLocked(c, ContainerDone)
	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.clock.Now(), obs.KindContainerRelease, c.JobID).WithF(obs.Fields{
			"container": c.ID, "server": c.Server,
		}))
	}
	return nil
}

func (rm *ResourceManager) removeLocked(c *Container, final ContainerState) {
	if ContainerState(atomic.LoadInt32(&c.state)) == ContainerKilled ||
		ContainerState(atomic.LoadInt32(&c.state)) == ContainerDone {
		return
	}
	atomic.StoreInt32(&c.state, int32(final))
	close(c.done)
	delete(rm.containers, c.ID)
	delete(rm.byJob[c.JobID], c.ID)
	if len(rm.byJob[c.JobID]) == 0 {
		delete(rm.byJob, c.JobID)
	}
}

// JobContainers returns the live containers of a job.
func (rm *ResourceManager) JobContainers(jobID int) []*Container {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]*Container, 0, len(rm.byJob[jobID]))
	for _, c := range rm.byJob[jobID] {
		out = append(out, c)
	}
	return out
}

// Live returns the number of live containers.
func (rm *ResourceManager) Live() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.containers)
}

// Stats returns cumulative launch and kill counts.
func (rm *ResourceManager) Stats() (launched, killed int64) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.launched, rm.killed
}
