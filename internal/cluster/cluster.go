// Package cluster models the physical substrate: hosts with CPU and memory
// capacity, microservice containers placed on them, utilization accounting,
// and the resource-interference model that inflates container service times
// when hosts run hot. It is the stand-in for the paper's 20-host testbed.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"erms/internal/workload"
)

// HostSpec describes one physical host.
type HostSpec struct {
	Cores int     // CPU cores
	MemGB float64 // memory in GiB
}

// PaperHost matches the evaluation cluster: two-socket hosts with 32 cores
// and 64 GB RAM (§6.1).
var PaperHost = HostSpec{Cores: 32, MemGB: 64}

// ContainerSpec is the resource configuration of one microservice container.
type ContainerSpec struct {
	Microservice string
	CPU          float64 // cores requested, e.g. 0.1 (§6.1)
	MemMB        float64 // memory requested in MiB, e.g. 200
	Threads      int     // worker threads processing requests in parallel
}

// PaperContainer matches the evaluation configuration: 0.1 core and 200 MB
// per container (§6.1), with a small worker pool.
func PaperContainer(microservice string) ContainerSpec {
	return ContainerSpec{Microservice: microservice, CPU: 0.1, MemMB: 200, Threads: 4}
}

// Validate checks the container spec.
func (c ContainerSpec) Validate() error {
	if c.Microservice == "" {
		return errors.New("cluster: container with empty microservice")
	}
	if c.CPU <= 0 || c.MemMB <= 0 {
		return fmt.Errorf("cluster: container %s with non-positive resources", c.Microservice)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("cluster: container %s with no worker threads", c.Microservice)
	}
	return nil
}

// Container is a placed instance of a microservice.
type Container struct {
	ID   int
	Spec ContainerSpec
	Host *Host

	// cpuUsage is the CPU actually consumed (cores); defaults to the request
	// and may be overwritten by the simulator with measured usage.
	cpuUsage float64
}

// SetCPUUsage records measured CPU consumption in cores. A negative or NaN
// reading counts as 0: one NaN would otherwise poison its host's utilization
// and, through it, both cluster means and every placement score.
func (c *Container) SetCPUUsage(cores float64) {
	if cores < 0 || math.IsNaN(cores) {
		cores = 0
	}
	c.cpuUsage = cores
	if c.Host != nil {
		c.Host.touch()
	}
}

// CPUUsage returns the CPU consumption used for utilization accounting.
func (c *Container) CPUUsage() float64 { return c.cpuUsage }

// Host is one physical machine. Its geometry and background load are written
// only through its Cluster (SetHostSpec, SetBackground), so every change
// reaches the cluster's utilization table.
type Host struct {
	ID int

	cl         *Cluster
	spec       HostSpec
	background workload.Interference // colocated batch-job load (iBench substitute)

	// ordered holds the host's containers sorted by ID. Utilization sums
	// iterate it in that order: float addition is order-sensitive at the ulp,
	// so a fixed order is what makes CPUUtil reproducible run to run.
	ordered []*Container
	down    bool // failed: hosts nothing, schedules nothing

	// extCPUCores / extMemMB account for load on this host that is simulated
	// elsewhere: when the simulator splits a run into sharing-group
	// partitions, each partition clones the cluster with only its own
	// containers placed, and the other partitions' containers show up here as
	// external usage exchanged at window boundaries. Zero outside partitioned
	// runs.
	extCPUCores float64
	extMemMB    float64

	// agg caches the sums behind CPUUtil/MemUtil/CPUFree/MemFreeMB while
	// aggValid holds; touch clears it.
	agg      hostAgg
	aggValid bool
	queued   bool // listed in cl.dirty
}

// hostAgg is one pass over a host's containers in ID order.
type hostAgg struct {
	cpuRaw, memRaw   float64 // utilization before the cap at 1
	cpuFree, memFree float64
}

// touch is the one invalidation rule: every mutation of a host's containers,
// usage, geometry, background or liveness calls it. It drops the host's
// aggregate and the cluster's cached means, and queues the host for the
// utilization table's next refresh.
func (h *Host) touch() {
	h.aggValid = false
	h.cl.meansValid = false
	if !h.queued {
		h.queued = true
		h.cl.dirty = append(h.cl.dirty, h.ID)
	}
}

// aggregates returns the host's sums, recomputing them after a change. The
// recomputation always walks every container in ID order with one accumulator
// per sum — never an incremental add or subtract — so each value is
// bit-identical to a from-scratch computation whatever the history of
// placements and removals.
func (h *Host) aggregates() *hostAgg {
	a := &h.agg
	if h.aggValid {
		return a
	}
	cores, memMB := float64(h.spec.Cores), h.spec.MemGB*1024
	a.cpuRaw = h.background.CPU + h.extCPUCores/cores
	a.memRaw = h.background.Mem + h.extMemMB/memMB
	a.cpuFree = cores * (1 - h.background.CPU)
	a.memFree = memMB * (1 - h.background.Mem)
	for _, c := range h.ordered {
		a.cpuRaw += c.cpuUsage / cores
		a.memRaw += c.Spec.MemMB / memMB
		a.cpuFree -= c.Spec.CPU
		a.memFree -= c.Spec.MemMB
	}
	h.aggValid = true
	return a
}

// Spec returns the host's capacity.
func (h *Host) Spec() HostSpec { return h.spec }

// Background returns the colocated batch-job interference on the host.
func (h *Host) Background() workload.Interference { return h.background }

// SetExternalUsage records resource consumption by containers simulated in
// other partitions of a partitioned run. It feeds CPUUtil and MemUtil (and
// through them the interference model) without placing the containers here.
// Negative or NaN values count as 0, as in Container.SetCPUUsage.
func (h *Host) SetExternalUsage(cpuCores, memMB float64) {
	if cpuCores < 0 || math.IsNaN(cpuCores) {
		cpuCores = 0
	}
	if memMB < 0 || math.IsNaN(memMB) {
		memMB = 0
	}
	h.extCPUCores = cpuCores
	h.extMemMB = memMB
	h.touch()
}

// Down reports whether the host has failed.
func (h *Host) Down() bool { return h.down }

// SetDown marks the host failed (true) or recovered (false). Failing a host
// does not remove its containers — the orchestrator owns that bookkeeping
// (kube.Orchestrator.FailNode evicts and emits watch events).
func (h *Host) SetDown(down bool) {
	h.down = down
	h.touch()
}

// Schedulable reports whether new containers may be placed on the host.
func (h *Host) Schedulable() bool { return !h.down }

// Containers returns the containers placed on the host, ordered by ID.
func (h *Host) Containers() []*Container {
	out := make([]*Container, len(h.ordered))
	copy(out, h.ordered)
	return out
}

// NumContainers returns the number of containers placed on the host.
func (h *Host) NumContainers() int { return len(h.ordered) }

// ContainerAt returns the host's i-th container in ID order, for
// 0 <= i < NumContainers(): a walk over the host without the copy Containers
// makes. The host must not change during the walk.
func (h *Host) ContainerAt(i int) *Container { return h.ordered[i] }

// insertByID adds c to an ID-sorted slice. IDs are assigned monotonically so
// the search lands on the end and the insert is a plain append.
func insertByID(s []*Container, c *Container) []*Container {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= c.ID })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = c
	return s
}

// removeByID deletes the container with the given ID from an ID-sorted slice.
func removeByID(s []*Container, id int) []*Container {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i < len(s) && s[i].ID == id {
		copy(s[i:], s[i+1:])
		s[len(s)-1] = nil
		s = s[:len(s)-1]
	}
	return s
}

// CPUUtil returns the host CPU utilization in [0, 1]: background plus the sum
// of container CPU usage over capacity, capped at 1.
func (h *Host) CPUUtil() float64 { return min(h.aggregates().cpuRaw, 1) }

// MemUtil returns the host memory utilization in [0, 1]: background plus
// container memory requests over capacity, capped at 1.
func (h *Host) MemUtil() float64 { return min(h.aggregates().memRaw, 1) }

// UtilAfter returns the CPU and memory utilization the host would report if
// the CPU usage of its containers changed by cpuCores and their memory
// requests by memMB (negative for a departing container). Nothing is mutated:
// provision.Rebalance scores candidate migrations with it.
func (h *Host) UtilAfter(cpuCores, memMB float64) (cpu, mem float64) {
	a := h.aggregates()
	cpu = min(a.cpuRaw+cpuCores/float64(h.spec.Cores), 1)
	mem = min(a.memRaw+memMB/(h.spec.MemGB*1024), 1)
	return cpu, mem
}

// CPUFree returns uncommitted CPU cores (requests, not usage).
func (h *Host) CPUFree() float64 { return h.aggregates().cpuFree }

// MemFreeMB returns uncommitted memory in MiB.
func (h *Host) MemFreeMB() float64 { return h.aggregates().memFree }

// Fits reports whether the host can accept the given container spec: it must
// be schedulable (not down) and have free capacity. Every scheduler routes
// through Fits, so down hosts are invisible to placement without per-policy
// changes.
func (h *Host) Fits(spec ContainerSpec) bool {
	return h.Schedulable() && h.CPUFree() >= spec.CPU && h.MemFreeMB() >= spec.MemMB
}

// Cluster is a set of hosts with container placement state.
type Cluster struct {
	hosts      []*Host
	containers map[int]*Container
	// byMS indexes the containers of each microservice, sorted by ID; Place,
	// Remove and Reset maintain it. A microservice with no containers has no
	// entry.
	byMS    map[string][]*Container
	nextCID int

	// The utilization table behind MeanCPUUtil, MeanMemUtil and Imbalance:
	// cpu, mem and down hold each host's CPUUtil, MemUtil and Down as of the
	// last refresh, by host ID, and dirty lists the hosts touched since.
	// meanCPU and meanMem are current while meansValid holds.
	cpu, mem         []float64
	down             []bool
	dirty            []int
	meanCPU, meanMem float64
	meansValid       bool
}

// New creates a cluster of n identical hosts.
func New(n int, spec HostSpec) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one host")
	}
	cl := &Cluster{
		containers: make(map[int]*Container),
		byMS:       make(map[string][]*Container),
		cpu:        make([]float64, n),
		mem:        make([]float64, n),
		down:       make([]bool, n),
		dirty:      make([]int, 0, n),
	}
	for i := 0; i < n; i++ {
		h := &Host{ID: i, cl: cl, spec: spec}
		cl.hosts = append(cl.hosts, h)
		h.touch()
	}
	return cl
}

// NewPaperCluster builds the evaluation cluster: 20 hosts of 32 cores / 64 GB.
func NewPaperCluster() *Cluster { return New(20, PaperHost) }

// Hosts returns the hosts in ID order.
func (cl *Cluster) Hosts() []*Host { return cl.hosts }

// Host returns the host with the given ID, or nil.
func (cl *Cluster) Host(id int) *Host {
	if id < 0 || id >= len(cl.hosts) {
		return nil
	}
	return cl.hosts[id]
}

// NumHosts returns the host count.
func (cl *Cluster) NumHosts() int { return len(cl.hosts) }

// TotalCores returns the cluster CPU capacity in cores.
func (cl *Cluster) TotalCores() float64 {
	var t float64
	for _, h := range cl.hosts {
		t += float64(h.spec.Cores)
	}
	return t
}

// TotalMemMB returns the cluster memory capacity in MiB.
func (cl *Cluster) TotalMemMB() float64 {
	var t float64
	for _, h := range cl.hosts {
		t += h.spec.MemGB * 1024
	}
	return t
}

// DominantShare computes R_i from Eq. 3: the dominant fraction of cluster
// capacity one container of the given spec consumes.
func (cl *Cluster) DominantShare(spec ContainerSpec) float64 {
	rc := spec.CPU / cl.TotalCores()
	rm := spec.MemMB / cl.TotalMemMB()
	if rc > rm {
		return rc
	}
	return rm
}

// Place creates a container on the given host. It returns an error when the
// host lacks capacity.
func (cl *Cluster) Place(spec ContainerSpec, hostID int) (*Container, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h := cl.Host(hostID)
	if h == nil {
		return nil, fmt.Errorf("cluster: no host %d", hostID)
	}
	if !h.Schedulable() {
		return nil, fmt.Errorf("cluster: host %d is not schedulable (down=%v)", hostID, h.down)
	}
	if !h.Fits(spec) {
		return nil, fmt.Errorf("cluster: host %d cannot fit container %s (cpu free %.2f, mem free %.0fMB)",
			hostID, spec.Microservice, h.CPUFree(), h.MemFreeMB())
	}
	c := &Container{ID: cl.nextCID, Spec: spec, Host: h, cpuUsage: spec.CPU}
	cl.nextCID++
	h.ordered = insertByID(h.ordered, c)
	h.touch()
	cl.containers[c.ID] = c
	cl.byMS[spec.Microservice] = insertByID(cl.byMS[spec.Microservice], c)
	return c, nil
}

// Remove deletes a container by ID.
func (cl *Cluster) Remove(containerID int) error {
	c, ok := cl.containers[containerID]
	if !ok {
		return fmt.Errorf("cluster: no container %d", containerID)
	}
	c.Host.ordered = removeByID(c.Host.ordered, containerID)
	c.Host.touch()
	delete(cl.containers, containerID)
	if rest := removeByID(cl.byMS[c.Spec.Microservice], containerID); len(rest) > 0 {
		cl.byMS[c.Spec.Microservice] = rest
	} else {
		delete(cl.byMS, c.Spec.Microservice)
	}
	return nil
}

// Containers returns all containers ordered by ID.
func (cl *Cluster) Containers() []*Container {
	out := make([]*Container, 0, len(cl.containers))
	for _, c := range cl.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumContainers returns the number of placed containers.
func (cl *Cluster) NumContainers() int { return len(cl.containers) }

// ContainersFor returns the containers of one microservice, ordered by ID.
// The slice is the caller's: schedulers sort it in place.
func (cl *Cluster) ContainersFor(microservice string) []*Container {
	idx := cl.byMS[microservice]
	if len(idx) == 0 {
		return nil
	}
	out := make([]*Container, len(idx))
	copy(out, idx)
	return out
}

// CountFor returns the number of containers deployed for a microservice.
func (cl *Cluster) CountFor(microservice string) int { return len(cl.byMS[microservice]) }

// means brings the utilization table up to date — only the hosts touched
// since the last call are re-read — and returns the mean CPU and memory
// utilization over live hosts, cached until the next touch. The sums walk the
// table in host-ID order with one accumulator each: the addends, and the
// order, of a pass over Hosts(), so the means are bit-identical to one.
func (cl *Cluster) means() (cpu, mem float64) {
	if cl.meansValid {
		return cl.meanCPU, cl.meanMem
	}
	for _, id := range cl.dirty {
		h := cl.hosts[id]
		h.queued = false
		cl.cpu[id], cl.mem[id], cl.down[id] = h.CPUUtil(), h.MemUtil(), h.down
	}
	cl.dirty = cl.dirty[:0]
	var sc, sm float64
	n := 0
	for id, down := range cl.down {
		if down {
			continue
		}
		sc += cl.cpu[id]
		sm += cl.mem[id]
		n++
	}
	cl.meanCPU, cl.meanMem = 0, 0
	if n > 0 {
		cl.meanCPU, cl.meanMem = sc/float64(n), sm/float64(n)
	}
	cl.meansValid = true
	return cl.meanCPU, cl.meanMem
}

// MeanCPUUtil returns the average CPU utilization over live hosts (§5.3.1
// feeds this into the profiling model). Failed hosts run nothing and are
// excluded so a partial outage does not read as a cold cluster.
func (cl *Cluster) MeanCPUUtil() float64 {
	cpu, _ := cl.means()
	return cpu
}

// MeanMemUtil returns the average memory utilization over live hosts.
func (cl *Cluster) MeanMemUtil() float64 {
	_, mem := cl.means()
	return mem
}

// Imbalance returns the resource-unbalance objective of §5.4: the sum over
// hosts of squared deviation between host utilization and the cluster-wide
// mean, for CPU and memory.
func (cl *Cluster) Imbalance() float64 {
	mc, mm := cl.means() // also refreshes the table
	var s float64
	for id, down := range cl.down {
		if down {
			continue
		}
		dc := cl.cpu[id] - mc
		dm := cl.mem[id] - mm
		s += dc*dc + dm*dm
	}
	return s
}

// SetBackground sets the colocated batch-job interference on a host.
func (cl *Cluster) SetBackground(hostID int, itf workload.Interference) error {
	h := cl.Host(hostID)
	if h == nil {
		return fmt.Errorf("cluster: no host %d", hostID)
	}
	h.background = itf.Clamp(1)
	h.touch()
	return nil
}

// SetHostSpec changes a host's capacity, e.g. to clone a heterogeneous
// cluster; New gives every host the same spec.
func (cl *Cluster) SetHostSpec(hostID int, spec HostSpec) error {
	h := cl.Host(hostID)
	if h == nil {
		return fmt.Errorf("cluster: no host %d", hostID)
	}
	h.spec = spec
	h.touch()
	return nil
}
