// Package testbed is the prototype runtime behind the paper's testbed
// experiments (§7.5). Where the simulator models everything analytically
// and event by event, the testbed steps the system the way the deployment
// runs it, scaled down: a tick loop on simulated time, a YARN-lite resource
// manager whose containers pay a launch latency before they report ready,
// and a controller per job gating training on its ready workers (§6). Which
// scheduler controls a server is its cluster pool: the orchestrator's pool
// moves are §6's whitelist update, on the prototype as in the simulator.
//
// The same scheduling code (internal/sched, internal/orchestrator) drives
// the testbed and the simulator over the same sim.State; only the execution
// substrate differs, and the package holds only what the simulator lacks.
// Training progress is granted through sim.State.Retire, faults replay
// fault.FullSchedule through sim.State.CrashServer and RecoverServer (rack
// and zone outages included), and the run is summarized by sim.Summarize
// and sim.LostCapacity — none of it is restated here. Like
// the simulator core it runs on one goroutine and never reads the wall
// clock, so a run is a pure function of its Config and trace. The paper
// uses four 8-GPU V100 servers plus four 8-GPU T4 servers and a scaled-down
// 180-job trace; lyra.RunTestbed reproduces that setup.
package testbed

import (
	"fmt"
	"slices"

	"lyra/internal/fault"
	"lyra/internal/obs"
)

// ContainerState tracks a container through its lifecycle.
type ContainerState int

// Container lifecycle states.
const (
	ContainerLaunching ContainerState = iota
	ContainerRunning
	ContainerKilled
	ContainerDone
)

// Container is one worker container: it pays a launch latency (image pull,
// process start) before reporting ready, then idles until killed or
// released. How long a job trained is decided by its controller, not the
// container, mirroring how the prototype's controller process owns worker
// coordination (§6).
type Container struct {
	ID       int
	JobID    int
	Server   int
	GPUs     int
	Flexible bool

	state   ContainerState
	readyAt float64 // simulated instant the launch latency has been paid
}

// State returns the container's current lifecycle state.
func (c *Container) State() ContainerState { return c.state }

// ResourceManager is the YARN-lite layer: it owns node bookkeeping, charges
// containers their launch latency, and reports readiness to the per-job
// controllers. Its time is the tick loop's: Advance moves it forward.
type ResourceManager struct {
	launchDelay float64 // simulated seconds from launch to ready
	now         float64

	// Obs is the optional event recorder for container transitions.
	Obs *obs.Recorder
	// Injector optionally injects container-launch failures; nil injects
	// nothing.
	Injector *fault.Injector

	nextID     int
	containers map[int]*Container
	byJob      map[int][]*Container // container-ID order
	launching  []*Container         // not yet ready, container-ID order
	launched   int64
	killed     int64
}

// NewResourceManager returns a resource manager at simulated time zero.
// launchDelay is the container start latency in simulated seconds.
func NewResourceManager(launchDelay float64) *ResourceManager {
	return &ResourceManager{
		launchDelay: launchDelay,
		containers:  make(map[int]*Container),
		byJob:       make(map[int][]*Container),
	}
}

// Advance moves the resource manager to simulated time now. Every launching
// container whose latency has elapsed becomes Running, in container-ID
// order, its readiness event stamped with the instant it came up (after the
// previous Advance, at or before this one, so the stream's time never
// steps back).
func (rm *ResourceManager) Advance(now float64) {
	rm.now = now
	waiting := rm.launching[:0]
	for _, c := range rm.launching {
		switch {
		case c.state != ContainerLaunching: // killed before it came up
		case c.readyAt > now:
			waiting = append(waiting, c)
		default:
			c.state = ContainerRunning
			if rm.Obs.Enabled() {
				rm.Obs.Emit(obs.JobEv(c.readyAt, obs.KindContainerReady, c.JobID).WithF(obs.Fields{
					"container": c.ID, "server": c.Server,
				}))
			}
		}
	}
	rm.launching = waiting
}

// Launch starts a container for jobID on server with the given GPUs. The
// returned container becomes Running at the first Advance past the launch
// latency. With a fault injector installed, a launch may fail
// (fault.ErrInjectedLaunch) — callers retry with backoff and eventually
// requeue the job through the checkpoint-restart path.
func (rm *ResourceManager) Launch(jobID, server, gpus int, flexible bool) (*Container, error) {
	if rm.Injector.LaunchFails() {
		if rm.Obs.Enabled() {
			rm.Obs.Emit(obs.JobEv(rm.now, obs.KindFaultLaunch, jobID).WithF(obs.Fields{
				"server": server, "gpus": gpus,
			}))
		}
		return nil, fmt.Errorf("testbed: launch container for job %d on server %d: %w", jobID, server, fault.ErrInjectedLaunch)
	}
	rm.nextID++
	c := &Container{
		ID: rm.nextID, JobID: jobID, Server: server, GPUs: gpus, Flexible: flexible,
		readyAt: rm.now + rm.launchDelay,
	}
	rm.containers[c.ID] = c
	rm.byJob[jobID] = append(rm.byJob[jobID], c)
	rm.launching = append(rm.launching, c)
	rm.launched++
	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.now, obs.KindContainerLaunch, jobID).WithF(obs.Fields{
			"container": c.ID, "server": server, "gpus": gpus, "flexible": flexible,
		}))
	}
	return c, nil
}

// Kill terminates a container (preemption or scale-in).
func (rm *ResourceManager) Kill(id int) error {
	c, ok := rm.containers[id]
	if !ok {
		return fmt.Errorf("testbed: kill unknown container %d", id)
	}
	rm.remove(c, ContainerKilled)
	rm.killed++
	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.now, obs.KindContainerKill, c.JobID).WithF(obs.Fields{
			"container": c.ID, "server": c.Server,
		}))
	}
	return nil
}

// Release completes a container normally (job finished).
func (rm *ResourceManager) Release(id int) error {
	c, ok := rm.containers[id]
	if !ok {
		return fmt.Errorf("testbed: release unknown container %d", id)
	}
	rm.remove(c, ContainerDone)
	if rm.Obs.Enabled() {
		rm.Obs.Emit(obs.JobEv(rm.now, obs.KindContainerRelease, c.JobID).WithF(obs.Fields{
			"container": c.ID, "server": c.Server,
		}))
	}
	return nil
}

func (rm *ResourceManager) remove(c *Container, final ContainerState) {
	c.state = final
	delete(rm.containers, c.ID)
	rest := slices.DeleteFunc(rm.byJob[c.JobID], func(o *Container) bool { return o == c })
	if len(rest) == 0 {
		delete(rm.byJob, c.JobID)
	} else {
		rm.byJob[c.JobID] = rest
	}
}

// JobContainers returns the live containers of a job in container-ID order.
// The slice is a copy: callers kill and release while walking it.
func (rm *ResourceManager) JobContainers(jobID int) []*Container {
	return slices.Clone(rm.byJob[jobID])
}

// Live returns the number of live containers.
func (rm *ResourceManager) Live() int { return len(rm.containers) }

// Stats returns cumulative launch and kill counts.
func (rm *ResourceManager) Stats() (launched, killed int64) {
	return rm.launched, rm.killed
}
