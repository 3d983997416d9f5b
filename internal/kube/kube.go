// Package kube is a miniature in-process container orchestrator standing in
// for Kubernetes: deployments with replica counts, a pluggable scheduler
// that picks hosts for new containers (and victims for scale-down), and
// watch hooks. Erms' Online Scaling and Resource Provisioning modules drive
// the cluster exclusively through this API, mirroring the paper's prototype,
// which issues scaling actions through the Kubernetes client (§5.5).
package kube

import (
	"fmt"
	"slices"
	"sort"

	"erms/internal/cluster"
	"erms/internal/obs"
)

// Scheduler decides where new containers go and which containers leave.
type Scheduler interface {
	// Place returns the host ID for one new container of the given spec.
	Place(cl *cluster.Cluster, spec cluster.ContainerSpec) (int, error)
	// Evict returns the container of the microservice to remove next.
	Evict(cl *cluster.Cluster, microservice string) (*cluster.Container, error)
}

// BlindSpread is the stock Kubernetes scheduler and the default: it
// balances *requested* pod resources and is completely blind to the
// background batch load on each host (batch jobs run outside the
// orchestrator), which is precisely why the paper's K8s baseline lands
// latency-critical containers on interference-heavy hosts (§6.4.3,
// Fig. 15). Interference is Erms' provisioning module's job (§5.4).
type BlindSpread struct{}

// requestedCPU sums the CPU requests of the host's containers in ID order.
func requestedCPU(h *cluster.Host) float64 {
	var req float64
	for i := 0; i < h.NumContainers(); i++ {
		req += h.ContainerAt(i).Spec.CPU
	}
	return req
}

// Place picks the feasible host with the least container-requested CPU,
// ignoring background load (but still respecting hard capacity).
func (BlindSpread) Place(cl *cluster.Cluster, spec cluster.ContainerSpec) (int, error) {
	best, bestReq := -1, 0.0
	for _, h := range cl.Hosts() {
		if !h.Fits(spec) {
			continue
		}
		if req := requestedCPU(h); best < 0 || req < bestReq {
			best, bestReq = h.ID, req
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("kube: no host fits container %s", spec.Microservice)
	}
	return best, nil
}

// Evict removes from the host with the most requested CPU.
func (BlindSpread) Evict(cl *cluster.Cluster, microservice string) (*cluster.Container, error) {
	cs := cl.ContainersFor(microservice)
	if len(cs) == 0 {
		return nil, fmt.Errorf("kube: no containers of %s to evict", microservice)
	}
	sort.Slice(cs, func(i, j int) bool { return requestedCPU(cs[i].Host) > requestedCPU(cs[j].Host) })
	return cs[0], nil
}

// EventType describes an orchestration action.
type EventType int

// Orchestration event types.
const (
	EventCreate EventType = iota
	EventScaleUp
	EventScaleDown
	EventDelete
	// EventNodeFail reports a node failure; Delta is the (negative) number of
	// containers lost with it.
	EventNodeFail
	// EventNodeRecover reports a failed node rejoining the cluster.
	EventNodeRecover
	// EventRepair reports replacement containers placed for a deployment that
	// had fewer live containers than desired replicas (e.g. after a node
	// failure).
	EventRepair
)

func (t EventType) String() string {
	switch t {
	case EventCreate:
		return "create"
	case EventScaleUp:
		return "scale-up"
	case EventScaleDown:
		return "scale-down"
	case EventDelete:
		return "delete"
	case EventNodeFail:
		return "node-fail"
	case EventNodeRecover:
		return "node-recover"
	case EventRepair:
		return "repair"
	default:
		return "unknown"
	}
}

// Event is emitted to watchers on every orchestration action.
type Event struct {
	Type EventType
	// Delta is the replica-count change (positive for scale-up).
	Delta int
}

// Deployment tracks the desired state of one microservice.
type Deployment struct {
	Spec     cluster.ContainerSpec
	Replicas int
}

// Orchestrator reconciles deployments onto the cluster.
type Orchestrator struct {
	cl          *cluster.Cluster
	sched       Scheduler
	deployments map[string]*Deployment
	// names lists the deployments sorted; nil after a create or delete until
	// the next sortedNames rebuilds it. A rebuild makes a new slice, so a
	// walk over the previous one is never disturbed.
	names    []string
	watchers []func(Event)
	rec      *obs.Recorder
}

// New creates an orchestrator over the cluster with the given scheduler
// (BlindSpread when nil).
func New(cl *cluster.Cluster, sched Scheduler) *Orchestrator {
	if sched == nil {
		sched = BlindSpread{}
	}
	return &Orchestrator{
		cl:          cl,
		sched:       sched,
		deployments: make(map[string]*Deployment),
	}
}

// Cluster exposes the underlying cluster (read-mostly; scaling should go
// through the orchestrator).
func (o *Orchestrator) Cluster() *cluster.Cluster { return o.cl }

// SetScheduler swaps the placement policy (e.g. Erms' interference-aware
// provisioner).
func (o *Orchestrator) SetScheduler(s Scheduler) {
	if s != nil {
		o.sched = s
	}
}

// Watch registers a hook invoked on every orchestration event.
func (o *Orchestrator) Watch(fn func(Event)) { o.watchers = append(o.watchers, fn) }

// SetRecorder attaches the control plane's self-observability recorder;
// every orchestration event is counted under erms.self.kube_*. A nil
// recorder detaches (the emit path then costs a single nil check).
func (o *Orchestrator) SetRecorder(r *obs.Recorder) { o.rec = r }

func (o *Orchestrator) emit(e Event) {
	if o.rec != nil {
		o.rec.Inc(obs.KubeEventCounter(e.Type.String()))
	}
	for _, w := range o.watchers {
		w(e)
	}
}

// Apply creates (or updates the spec of) a deployment and reconciles it to
// the given replica count.
func (o *Orchestrator) Apply(spec cluster.ContainerSpec, replicas int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if replicas < 0 {
		return fmt.Errorf("kube: negative replica count %d for %s", replicas, spec.Microservice)
	}
	d, ok := o.deployments[spec.Microservice]
	if !ok {
		d = &Deployment{Spec: spec}
		o.deployments[spec.Microservice] = d
		o.names = nil
		o.emit(Event{Type: EventCreate})
	} else {
		d.Spec = spec
	}
	return o.Scale(spec.Microservice, replicas)
}

// Scale reconciles a deployment to the desired replica count, placing or
// evicting containers one at a time through the scheduler.
func (o *Orchestrator) Scale(microservice string, replicas int) error {
	d, ok := o.deployments[microservice]
	if !ok {
		return fmt.Errorf("kube: unknown deployment %s", microservice)
	}
	if replicas < 0 {
		return fmt.Errorf("kube: negative replica count %d for %s", replicas, microservice)
	}
	current := o.cl.CountFor(microservice)
	switch {
	case replicas > current:
		for i := current; i < replicas; i++ {
			host, err := o.sched.Place(o.cl, d.Spec)
			if err != nil {
				d.Replicas = o.cl.CountFor(microservice)
				return err
			}
			if _, err := o.cl.Place(d.Spec, host); err != nil {
				d.Replicas = o.cl.CountFor(microservice)
				return err
			}
		}
		d.Replicas = replicas
		o.emit(Event{Type: EventScaleUp, Delta: replicas - current})
	case replicas < current:
		for i := current; i > replicas; i-- {
			victim, err := o.sched.Evict(o.cl, microservice)
			if err != nil {
				d.Replicas = o.cl.CountFor(microservice)
				return err
			}
			if err := o.cl.Remove(victim.ID); err != nil {
				d.Replicas = o.cl.CountFor(microservice)
				return err
			}
		}
		d.Replicas = replicas
		o.emit(Event{Type: EventScaleDown, Delta: replicas - current})
	default:
		d.Replicas = replicas
	}
	return nil
}

// Delete removes a deployment and all of its containers.
func (o *Orchestrator) Delete(microservice string) error {
	if _, ok := o.deployments[microservice]; !ok {
		return fmt.Errorf("kube: unknown deployment %s", microservice)
	}
	if err := o.Scale(microservice, 0); err != nil {
		return err
	}
	delete(o.deployments, microservice)
	o.names = nil
	o.emit(Event{Type: EventDelete})
	return nil
}

// Replicas returns the desired replica count of a deployment (0 if unknown).
func (o *Orchestrator) Replicas(microservice string) int {
	if d, ok := o.deployments[microservice]; ok {
		return d.Replicas
	}
	return 0
}

// Deployments returns the deployment names, sorted.
func (o *Orchestrator) Deployments() []string { return slices.Clone(o.sortedNames()) }

// sortedNames returns the cached sorted deployment names, rebuilding them
// after a create or delete. The slice is shared: callers only read it.
func (o *Orchestrator) sortedNames() []string {
	if o.names == nil {
		o.names = make([]string, 0, len(o.deployments))
		for name := range o.deployments {
			o.names = append(o.names, name)
		}
		sort.Strings(o.names)
	}
	return o.names
}

// TotalReplicas returns the sum of desired replicas across deployments —
// the "number of deployed containers" metric of the evaluation.
func (o *Orchestrator) TotalReplicas() int {
	t := 0
	for _, d := range o.deployments {
		t += d.Replicas
	}
	return t
}

// Deployment returns a copy of the named deployment's desired state.
func (o *Orchestrator) Deployment(microservice string) (Deployment, bool) {
	d, ok := o.deployments[microservice]
	if !ok {
		return Deployment{}, false
	}
	return *d, true
}

// FailNode takes a node down hard: its containers are lost immediately (no
// graceful migration) and the node stops accepting placements. Desired
// replica counts are untouched — deployments are left under-replicated until
// Repair (or the next Scale) places replacements, mirroring how a Kubernetes
// deployment converges after kubelet loss.
func (o *Orchestrator) FailNode(hostID int) error {
	h := o.cl.Host(hostID)
	if h == nil {
		return fmt.Errorf("kube: no host %d", hostID)
	}
	if h.Down() {
		return nil
	}
	lost := h.Containers()
	for _, c := range lost {
		if err := o.cl.Remove(c.ID); err != nil {
			return err
		}
	}
	h.SetDown(true)
	o.emit(Event{Type: EventNodeFail, Delta: -len(lost)})
	return nil
}

// RecoverNode brings a failed node back as an empty, schedulable host.
func (o *Orchestrator) RecoverNode(hostID int) error {
	h := o.cl.Host(hostID)
	if h == nil {
		return fmt.Errorf("kube: no host %d", hostID)
	}
	if !h.Down() {
		return nil
	}
	h.SetDown(false)
	o.emit(Event{Type: EventNodeRecover})
	return nil
}

// Repair places replacement containers for every deployment whose live
// container count fell below its desired replicas (containers lost to failed
// nodes). It proceeds best-effort across deployments in sorted order and
// returns how many replacements were placed plus the first placement error,
// if any (a cluster too degraded to hold the full desired state).
func (o *Orchestrator) Repair() (int, error) {
	replaced := 0
	var firstErr error
	for _, ms := range o.sortedNames() {
		d := o.deployments[ms]
		placed := 0
		for o.cl.CountFor(ms) < d.Replicas {
			host, err := o.sched.Place(o.cl, d.Spec)
			if err == nil {
				_, err = o.cl.Place(d.Spec, host)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("kube: repairing %s: %w", ms, err)
				}
				break
			}
			placed++
		}
		if placed > 0 {
			replaced += placed
			o.emit(Event{Type: EventRepair, Delta: placed})
		}
	}
	return replaced, firstErr
}
