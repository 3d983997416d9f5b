// Package scaling implements Erms' Latency Target Computation (§4, §5.3):
// the closed-form optimal latency split for sequential microservices
// (Eq. 5), the graph-merge procedure that reduces an arbitrary dependency
// graph to a sequential chain by inventing virtual microservices (Eq. 6-12,
// Algorithm 1), the reverse unwind that assigns every real microservice its
// target, and the two-interval recomputation pass of §5.3.1.
//
// Throughout, each microservice i is modeled as L_i = a_i·(γ_i/n_i) + b_i
// (tail latency versus per-container workload). The package works with
// A_i = a_i·γ_i so that L_i = A_i/n_i + b_i, which lets microservices with
// different workloads merge cleanly: the paper's Eq. 7-9 are the special
// case of equal γ.
package scaling

import (
	"errors"
	"fmt"
	"math"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// ErrInfeasible reports that the SLA is below the sum of intercepts on some
// path — no finite allocation can meet it.
var ErrInfeasible = errors.New("scaling: SLA infeasible (threshold below minimum attainable latency)")

// DomainCapRatio bounds how far past the knee the high-interval line may be
// used: per-container workload never exceeds DomainCapRatio·σ, keeping
// allocations inside the profiled (stable) operating range. At the analytic
// defaults (knee at 75% utilization) this caps containers at ~82% of
// saturation, where the simulator's measured tail latency still tracks the
// linearized model (~2.5× the idle tail); beyond that real queues detach
// from any linear extrapolation.
const DomainCapRatio = 1.1

// Input is everything Latency Target Computation needs for one service.
type Input struct {
	// Graph is the service's dependency graph.
	Graph *graph.Graph
	// SLA bounds the end-to-end tail latency.
	SLA workload.SLA
	// Models provides the fitted or analytic latency model per microservice.
	Models map[string]profiling.Model
	// Shares gives R_i, the dominant-resource share of one container of each
	// microservice (Eq. 3).
	Shares map[string]float64
	// Workloads gives γ_i, the total calls/minute each microservice must
	// absorb under this service's model. For shared microservices under
	// priority scheduling this is the modified cumulative workload of
	// §5.3.2; under FCFS it is the full aggregate; for private microservices
	// it is the service's own call rate.
	Workloads map[string]float64
	// CPUUtil and MemUtil are the cluster-average utilizations fed into the
	// profiling model (§5.3.1).
	CPUUtil float64
	MemUtil float64
}

func (in *Input) validate() error {
	if in.Graph == nil {
		return errors.New("scaling: nil graph")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.SLA.Validate(); err != nil {
		return err
	}
	for _, ms := range in.Graph.Microservices() {
		if _, ok := in.Models[ms]; !ok {
			return fmt.Errorf("scaling: no model for microservice %s", ms)
		}
		if in.Shares[ms] <= 0 {
			return fmt.Errorf("scaling: no resource share for microservice %s", ms)
		}
		if in.Workloads[ms] <= 0 {
			return fmt.Errorf("scaling: no workload for microservice %s", ms)
		}
	}
	return nil
}

// Allocation is the result of Latency Target Computation for one service.
type Allocation struct {
	Service string
	// Targets is the latency target (ms) per microservice.
	Targets map[string]float64
	// ContainersRaw is the exact (fractional) container requirement.
	ContainersRaw map[string]float64
	// Containers is ContainersRaw rounded up (§7: Erms rounds up).
	Containers map[string]int
	// UsedHigh records which interval of the piece-wise model was used.
	UsedHigh map[string]bool
	// ResourceUsage is Σ n_i·R_i over microservices (raw n), the objective
	// of Eq. 2.
	ResourceUsage float64
}

// TotalContainers sums the rounded container counts.
func (a *Allocation) TotalContainers() int {
	t := 0
	for _, n := range a.Containers {
		t += n
	}
	return t
}

// mergeKind distinguishes merge-tree nodes.
type mergeKind int

const (
	kindLeaf mergeKind = iota
	kindSeq
	kindPar
)

// mergeNode is one node of the virtual-microservice merge tree built by
// Algorithm 1. Leaves are real microservices (one per graph node); internal
// nodes are the virtual microservices of Eq. 7-12.
type mergeNode struct {
	kind mergeKind
	// A = a·γ, B = intercept, R = per-container dominant share.
	A, B, R float64
	// p = sqrt(A·R), q = sqrt(A/R): sequential composition adds these
	// component-wise (Eq. 7-9 generalize associatively in (p, q) form).
	p, q     float64
	children []*mergeNode
	// ms and node identify the real microservice at a leaf.
	ms   string
	node *graph.Node
}

func leafNode(ms string, node *graph.Node, a, b, gamma, share float64) *mergeNode {
	A := a * gamma
	return &mergeNode{
		kind: kindLeaf, A: A, B: b, R: share,
		p: math.Sqrt(A * share), q: math.Sqrt(A / share),
		ms: ms, node: node,
	}
}

// seqMerge invents the virtual microservice for sequentially-executed
// components (Eq. 7-9): p* = Σp, q* = Σq, b* = Σb.
func seqMerge(children []*mergeNode) *mergeNode {
	if len(children) == 1 {
		return children[0]
	}
	var p, q, b float64
	for _, c := range children {
		p += c.p
		q += c.q
		b += c.B
	}
	return &mergeNode{
		kind: kindSeq, A: p * q, B: b, R: p / q,
		p: p, q: q, children: children,
	}
}

// parMerge invents the virtual microservice for parallel components
// (Eq. 11-12): A** = ΣA, b** = max b, R** = Σ(A·R)/ΣA (container counts at
// a common target are proportional to A when intercepts match, which is the
// regime Eq. 12 linearizes).
func parMerge(children []*mergeNode) *mergeNode {
	if len(children) == 1 {
		return children[0]
	}
	var A, b, ar float64
	for _, c := range children {
		A += c.A
		if c.B > b {
			b = c.B
		}
		ar += c.A * c.R
	}
	r := ar / A
	return &mergeNode{
		kind: kindPar, A: A, B: b, R: r,
		p: math.Sqrt(A * r), q: math.Sqrt(A / r), children: children,
	}
}

// Plan computes latency targets and container counts for one service,
// running Latency Target Computation at most twice per §5.3.1: first with
// the high-workload interval for every microservice, then recomputing with
// the low interval for microservices whose allocated target falls below the
// latency at their cut-off point.
func Plan(in Input) (*Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	useHigh := make(map[string]bool, len(in.Workloads))
	for _, ms := range in.Graph.Microservices() {
		useHigh[ms] = true
	}
	alloc, err := compute(in, useHigh)
	if err != nil {
		return nil, err
	}
	flipped := false
	for ms, target := range alloc.Targets {
		m := in.Models[ms]
		knee := m.Knee(in.CPUUtil, in.MemUtil)
		aHi, bHi := m.Params(true, in.CPUUtil, in.MemUtil)
		kneeLatency := aHi*knee + bHi
		if target < kneeLatency {
			useHigh[ms] = false
			flipped = true
		}
	}
	if !flipped {
		return alloc, nil
	}
	return compute(in, useHigh)
}

// buildMergeTree runs Algorithm 1's reduction: every two-tier invocation is
// merged bottom-up — parallel merges within each stage first, then a
// sequential merge of the parent with its stages.
func buildMergeTree(in Input, useHigh map[string]bool) *mergeNode {
	var reduce func(n *graph.Node) *mergeNode
	reduce = func(n *graph.Node) *mergeNode {
		ms := n.Microservice
		a, b := in.Models[ms].Params(useHigh[ms], in.CPUUtil, in.MemUtil)
		self := leafNode(ms, n, a, b, in.Workloads[ms], in.Shares[ms])
		if n.IsLeaf() {
			return self
		}
		parts := []*mergeNode{self}
		for _, st := range n.Stages {
			stage := make([]*mergeNode, len(st))
			for i, c := range st {
				stage[i] = reduce(c)
			}
			parts = append(parts, parMerge(stage))
		}
		return seqMerge(parts)
	}
	return reduce(in.Graph.Root)
}

// compute runs one Latency Target Computation pass with the given interval
// selection.
func compute(in Input, useHigh map[string]bool) (*Allocation, error) {
	root := buildMergeTree(in, useHigh)

	alloc := &Allocation{
		Service:       in.Graph.Service,
		Targets:       make(map[string]float64),
		ContainersRaw: make(map[string]float64),
		Containers:    make(map[string]int),
		UsedHigh:      useHigh,
	}

	// Unwind the merge tree (Fig. 8): the root's target is the SLA;
	// sequential splits follow the Eq. 5 proportional rule; parallel
	// components share their parent's target.
	var unwind func(mn *mergeNode, target float64) error
	unwind = func(mn *mergeNode, target float64) error {
		switch mn.kind {
		case kindLeaf:
			slack := target - mn.B
			if slack <= 0 {
				return fmt.Errorf("%w: microservice %s target %.3fms <= intercept %.3fms",
					ErrInfeasible, mn.ms, target, mn.B)
			}
			n := mn.A / slack
			gamma := in.Workloads[mn.ms]
			// Keep the allocation inside the interval's validity domain:
			// the low interval only holds below the knee, and the high
			// interval only to DomainCapRatio·knee (past that the real
			// queue is unstable no matter what the line extrapolates to).
			if knee := in.Models[mn.ms].Knee(in.CPUUtil, in.MemUtil); knee > 0 {
				limit := knee
				if useHigh[mn.ms] {
					limit = knee * DomainCapRatio
				}
				if minN := gamma / limit; n < minN {
					n = minN
				}
			}
			// A microservice occupying several graph positions keeps its
			// tightest target and largest container requirement.
			if cur, ok := alloc.Targets[mn.ms]; !ok || target < cur {
				alloc.Targets[mn.ms] = target
			}
			if cur, ok := alloc.ContainersRaw[mn.ms]; !ok || n > cur {
				alloc.ContainersRaw[mn.ms] = n
			}
			return nil
		case kindSeq:
			slack := target - mn.B
			if slack <= 0 {
				return fmt.Errorf("%w: service %s: target %.3fms <= path intercepts %.3fms",
					ErrInfeasible, in.Graph.Service, target, mn.B)
			}
			var pSum float64
			for _, c := range mn.children {
				pSum += c.p
			}
			for _, c := range mn.children {
				// Child k's target: b_k + (p_k/Σp)·slack (Eq. 5).
				if err := unwind(c, c.B+c.p/pSum*slack); err != nil {
					return err
				}
			}
			return nil
		case kindPar:
			for _, c := range mn.children {
				if err := unwind(c, target); err != nil {
					return err
				}
			}
			return nil
		}
		return errors.New("scaling: unknown merge node kind")
	}
	if err := unwind(root, in.SLA.Threshold); err != nil {
		return nil, err
	}

	// Sum usage in sorted order so the float total is bit-stable run to run
	// (map iteration order would perturb the low bits).
	for _, ms := range sortutil.Keys(alloc.ContainersRaw) {
		raw := alloc.ContainersRaw[ms]
		n, err := containerCount(ms, raw)
		if err != nil {
			return nil, err
		}
		alloc.Containers[ms] = n
		alloc.ResourceUsage += raw * in.Shares[ms]
	}
	return alloc, nil
}

// containerCount rounds a raw requirement up to whole containers (§7: Erms
// rounds up; at least one). A requirement that is not finite or exceeds
// math.MaxInt32 is an error naming the microservice: the float-to-int
// conversion is undefined there (it used to come back negative and be
// clamped to one container), and no cluster deploys two billion replicas.
func containerCount(ms string, raw float64) (int, error) {
	if math.IsNaN(raw) || math.IsInf(raw, 0) || raw > math.MaxInt32 {
		return 0, fmt.Errorf("scaling: microservice %s needs %v containers, which cannot be planned", ms, raw)
	}
	n := int(math.Ceil(raw - 1e-9))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// EndToEndModelLatency evaluates the modeled end-to-end tail latency of a
// service for a given container assignment, composing per-microservice
// model latencies along the dependency graph (sequential stages add,
// parallel calls take the max).
func EndToEndModelLatency(in Input, containers map[string]int) (float64, error) {
	for _, ms := range in.Graph.Microservices() {
		if containers[ms] < 1 {
			return 0, fmt.Errorf("scaling: no containers for %s", ms)
		}
	}
	lat := func(n *graph.Node) float64 {
		ms := n.Microservice
		m := in.Models[ms]
		perContainer := in.Workloads[ms] / float64(containers[ms])
		return m.Predict(perContainer, in.CPUUtil, in.MemUtil)
	}
	return in.Graph.EndToEnd(lat), nil
}

// SortedTargets renders targets in a deterministic order for reports.
func SortedTargets(a *Allocation) []string {
	return sortutil.Keys(a.Targets)
}
