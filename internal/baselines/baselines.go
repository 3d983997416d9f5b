// Package baselines implements the three comparison systems of §6.1 —
// GrandSLAm, Rhythm, and Firm — against the same latency models and graphs
// Erms uses, so that evaluation differences isolate the target-computation
// policy:
//
//   - GrandSLAm splits the SLA proportionally to each microservice's mean
//     latency, independent of workload and interference.
//   - Rhythm splits it proportionally to a contribution score: the
//     normalized product of mean latency, latency variance, and the
//     correlation between microservice latency and end-to-end latency.
//   - Firm localizes the critical microservice on the critical path and
//     tunes only it, iteratively (a deterministic stand-in for its
//     reinforcement-learning loop).
package baselines

import (
	"errors"
	"fmt"
	"math"

	"erms/internal/graph"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// MSStats are the latency statistics across profiled workloads that
// GrandSLAm and Rhythm consume (they ignore the workload-dependence Erms
// models, which is the paper's core criticism).
type MSStats struct {
	MeanMs  float64 // mean microservice latency
	VarMs   float64 // variance of microservice latency across workloads
	CorrE2E float64 // correlation between microservice and end-to-end latency
}

// Input is the planning input for one service under a baseline.
type Input struct {
	Graph     *graph.Graph
	SLA       workload.SLA
	Models    map[string]profiling.Model
	Shares    map[string]float64
	Workloads map[string]float64
	Stats     map[string]MSStats
	CPUUtil   float64
	MemUtil   float64
}

func (in *Input) validate() error {
	if in.Graph == nil {
		return errors.New("baselines: nil graph")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.SLA.Validate(); err != nil {
		return err
	}
	for _, ms := range in.Graph.Microservices() {
		if _, ok := in.Models[ms]; !ok {
			return fmt.Errorf("baselines: no model for %s", ms)
		}
		if in.Shares[ms] <= 0 || in.Workloads[ms] <= 0 {
			return fmt.Errorf("baselines: missing share/workload for %s", ms)
		}
	}
	return nil
}

// Autoscaler plans container counts for one service.
type Autoscaler interface {
	Name() string
	Plan(in Input) (*scaling.Allocation, error)
}

// sizeForTarget converts a latency target into a container count using the
// microservice's model, choosing the interval consistent with the target.
// Targets at or below the attainable floor are clamped by capping the
// per-container workload at 5% of the knee (a 20x headroom deployment) —
// mirroring how a real operator saturates a hopeless sub-SLA with massive
// over-provisioning rather than failing.
func sizeForTarget(m profiling.Model, gamma, target, cpu, mem float64) float64 {
	knee := m.Knee(cpu, mem)
	aHi, bHi := m.Params(true, cpu, mem)
	kneeLatency := aHi*knee + bHi
	a, b := aHi, bHi
	limit := knee * scaling.DomainCapRatio
	if target < kneeLatency {
		a, b = m.Params(false, cpu, mem)
		limit = knee
	}
	if target <= b {
		// Unattainable target: saturate with a 10x over-provision relative
		// to the knee-optimal count, as a real operator would.
		return gamma / (knee * 0.1)
	}
	n := a * gamma / (target - b)
	// Same validity-domain clamp as Erms' planner: never run a container
	// past its interval's profiled range.
	if minN := gamma / limit; n < minN {
		n = minN
	}
	return n
}

// finalize assembles a scaling.Allocation from per-microservice targets.
func finalize(in Input, targets map[string]float64) *scaling.Allocation {
	mss := sortutil.Keys(targets)
	alloc := &scaling.Allocation{
		Microservices: mss,
		Targets:       targets,
		ContainersRaw: make([]float64, len(mss)),
		Containers:    make([]int, len(mss)),
		UsedHigh:      make([]bool, len(mss)),
	}
	// Sorted iteration keeps the usage float sum bit-stable run to run.
	for i, ms := range mss {
		t := targets[ms]
		m := in.Models[ms]
		raw := sizeForTarget(m, in.Workloads[ms], t, in.CPUUtil, in.MemUtil)
		alloc.ContainersRaw[i] = raw
		n := int(math.Ceil(raw - 1e-9))
		if n < 1 {
			n = 1
		}
		alloc.Containers[i] = n
		alloc.ResourceUsage += raw * in.Shares[ms]
		knee := m.Knee(in.CPUUtil, in.MemUtil)
		aHi, bHi := m.Params(true, in.CPUUtil, in.MemUtil)
		alloc.UsedHigh[i] = t >= aHi*knee+bHi
	}
	return alloc
}

// proportionalTargets splits the SLA proportionally to a per-microservice
// weight, normalized so that the weighted length of the heaviest path equals
// the SLA: target_i = SLA · w_i / maxPath(Σ w). Any root-to-leaf path then
// satisfies Σ targets ≤ SLA.
func proportionalTargets(g *graph.Graph, sla float64, weight map[string]float64) map[string]float64 {
	pathWeight := g.EndToEnd(func(n *graph.Node) float64 { return weight[n.Microservice] })
	targets := make(map[string]float64, len(weight))
	for _, ms := range g.Microservices() {
		w := weight[ms]
		if pathWeight <= 0 || w <= 0 {
			targets[ms] = sla / float64(g.Len())
			continue
		}
		targets[ms] = sla * w / pathWeight
	}
	return targets
}

// GrandSLAm allocates latency targets proportional to mean microservice
// latency [22].
type GrandSLAm struct{}

// Name implements Autoscaler.
func (GrandSLAm) Name() string { return "grandslam" }

// Plan implements Autoscaler.
func (GrandSLAm) Plan(in Input) (*scaling.Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	weight := make(map[string]float64)
	for _, ms := range in.Graph.Microservices() {
		st, ok := in.Stats[ms]
		if !ok || st.MeanMs <= 0 {
			return nil, fmt.Errorf("baselines: grandslam needs mean latency for %s", ms)
		}
		weight[ms] = st.MeanMs
	}
	return finalize(in, proportionalTargets(in.Graph, in.SLA.Threshold, weight)), nil
}

// Rhythm allocates latency targets proportional to the contribution score
// mean × variance × |correlation| (normalized) [45].
type Rhythm struct{}

// Name implements Autoscaler.
func (Rhythm) Name() string { return "rhythm" }

// Plan implements Autoscaler.
func (Rhythm) Plan(in Input) (*scaling.Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	weight := make(map[string]float64)
	var maxW float64
	for _, ms := range in.Graph.Microservices() {
		st, ok := in.Stats[ms]
		if !ok {
			return nil, fmt.Errorf("baselines: rhythm needs stats for %s", ms)
		}
		// Geometric combination of the three normalized factors; the raw
		// product would span many orders of magnitude across heterogeneous
		// microservices and starve the low-variance ones entirely.
		w := math.Cbrt(st.MeanMs * st.VarMs * math.Abs(st.CorrE2E))
		weight[ms] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for ms := range weight {
			w := weight[ms] / maxW // normalized contribution
			if w < 0.05 {
				w = 0.05
			}
			weight[ms] = w
		}
	}
	return finalize(in, proportionalTargets(in.Graph, in.SLA.Threshold, weight)), nil
}

// Firm starts from a capacity-minimal deployment and repeatedly scales out
// the critical microservice — the node on the critical path with the
// largest modeled latency — until the modeled end-to-end latency meets the
// SLA [35], within firmMaxIters scale-outs.
type Firm struct{}

// firmMaxIters bounds Firm's scale-out loop.
const firmMaxIters = 10000

// Name implements Autoscaler.
func (Firm) Name() string { return "firm" }

// Plan implements Autoscaler.
func (Firm) Plan(in Input) (*scaling.Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	containers := make(map[string]int)
	for _, ms := range in.Graph.Microservices() {
		knee := in.Models[ms].Knee(in.CPUUtil, in.MemUtil)
		n := int(math.Ceil(in.Workloads[ms] / knee))
		if n < 1 {
			n = 1
		}
		containers[ms] = n
	}
	lat := func(n *graph.Node) float64 {
		ms := n.Microservice
		per := in.Workloads[ms] / float64(containers[ms])
		return in.Models[ms].Predict(per, in.CPUUtil, in.MemUtil)
	}
	// floorOf is the best latency more containers can buy (the model
	// intercept); improvable reports whether scaling out still helps.
	floorOf := func(ms string) float64 {
		_, b := in.Models[ms].Params(false, in.CPUUtil, in.MemUtil)
		return b
	}
	for iter := 0; iter < firmMaxIters; iter++ {
		if in.Graph.EndToEnd(lat) <= in.SLA.Threshold {
			break
		}
		// Critical microservice: the largest *improvable* latency among
		// critical-path nodes. A node already at its floor cannot be helped
		// by more containers and must not be bumped forever.
		var critical string
		var worst float64
		for _, n := range in.Graph.CriticalNodes(lat) {
			ms := n.Microservice
			l := lat(n)
			if l <= floorOf(ms)*1.02 {
				continue
			}
			if l-floorOf(ms) > worst {
				worst, critical = l-floorOf(ms), ms
			}
		}
		if critical == "" {
			break // nothing improvable: the SLA is floor-bound
		}
		// Firm's action space scales the bottleneck in coarse steps.
		step := containers[critical] / 10
		if step < 1 {
			step = 1
		}
		containers[critical] += step
	}
	mss := sortutil.Keys(containers)
	alloc := &scaling.Allocation{
		Microservices: mss,
		Targets:       make(map[string]float64, len(mss)),
		ContainersRaw: make([]float64, len(mss)),
		Containers:    make([]int, len(mss)),
		UsedHigh:      make([]bool, len(mss)),
	}
	for i, ms := range mss {
		n := containers[ms]
		per := in.Workloads[ms] / float64(n)
		alloc.Targets[ms] = in.Models[ms].Predict(per, in.CPUUtil, in.MemUtil)
		alloc.ContainersRaw[i] = float64(n)
		alloc.Containers[i] = n
		alloc.ResourceUsage += float64(n) * in.Shares[ms]
		alloc.UsedHigh[i] = per > in.Models[ms].Knee(in.CPUUtil, in.MemUtil)
	}
	return alloc, nil
}

// PlanServices plans every service independently under the given baseline —
// no cross-service coordination — using FCFS aggregate workloads at shared
// microservices and deploying the max container requirement per shared
// microservice (equivalently, its minimum latency target: the
// "straightforward solution" of §2.3).
func PlanServices(scaler Autoscaler, inputs map[string]Input, loads map[string]map[string]float64, shared []string) (map[string]*scaling.Allocation, map[string]int, error) {
	if len(inputs) == 0 {
		return nil, nil, errors.New("baselines: no services")
	}
	return PlanEach(scaler, inputs, aggregateShared(shared, loads), shared)
}

// PlanEach plans every service on its own workloads, loads[svc], under the
// given baseline and merges the allocations: the max container count at a
// shared microservice, the sum elsewhere. It returns each service's
// allocation and the merged counts.
func PlanEach(scaler Autoscaler, inputs map[string]Input, loads map[string]map[string]float64, shared []string) (map[string]*scaling.Allocation, map[string]int, error) {
	perService := make(map[string]*scaling.Allocation, len(inputs))
	merged := make(map[string]int)
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}
	// Services size independently under a baseline autoscaler, so they fan
	// out like Erms' per-service decomposition; the merge folds allocations
	// back in sorted service order.
	svcs := sortutil.Keys(inputs)
	allocs, err := parallel.Map(len(svcs), func(i int) (*scaling.Allocation, error) {
		svc := svcs[i]
		in := inputs[svc]
		l, ok := loads[svc]
		if !ok {
			return nil, fmt.Errorf("baselines: no loads for %s", svc)
		}
		in.Workloads = l
		alloc, err := scaler.Plan(in)
		if err != nil {
			return nil, fmt.Errorf("baselines: %s/%s: %w", scaler.Name(), svc, err)
		}
		return alloc, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, svc := range svcs {
		alloc := allocs[i]
		perService[svc] = alloc
		for k, n := range alloc.Containers {
			if ms := alloc.Microservices[k]; sharedSet[ms] {
				if n > merged[ms] {
					merged[ms] = n
				}
			} else {
				merged[ms] += n
			}
		}
	}
	return perService, merged, nil
}

func aggregateShared(shared []string, loads map[string]map[string]float64) map[string]map[string]float64 {
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}
	// Fold contributions in sorted service order so totals are bit-stable.
	totals := make(map[string]float64)
	for _, svc := range sortutil.Keys(loads) {
		for ms, g := range loads[svc] {
			if sharedSet[ms] {
				totals[ms] += g
			}
		}
	}
	out := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, g := range byMS {
			if sharedSet[ms] {
				m[ms] = totals[ms]
			} else {
				m[ms] = g
			}
		}
		out[svc] = m
	}
	return out
}
