package scaling

// The recursive implementation of Algorithm 1 that Compile and Template.Solve
// replace in production, kept as their test oracle.

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"erms/internal/graph"
	"erms/internal/sortutil"
)

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

// naivePlan is the paper-literal Latency Target Computation the compiled
// template must match bit for bit: it builds the merge tree of Algorithm 1 as
// linked nodes, unwinds it recursively by Eq. 5, and reruns both with the low
// interval for every microservice whose target falls below its knee latency
// (§5.3.1). Validation runs in the template's order — static bindings first
// (Compile), then workloads in sorted order (Solve) — so errors match too.
func naivePlan(in Input) (*Allocation, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	for _, ms := range in.Graph.Microservices() {
		if in.Workloads[ms] <= 0 {
			return nil, fmt.Errorf("scaling: no workload for microservice %s", ms)
		}
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
		Targets: make(map[string]float64),
	}
	raws := make(map[string]float64)

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
			if cur, ok := raws[mn.ms]; !ok || n > cur {
				raws[mn.ms] = n
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
	alloc.Microservices = sortutil.Keys(raws)
	for _, ms := range alloc.Microservices {
		raw := raws[ms]
		n, err := containerCount(ms, raw)
		if err != nil {
			return nil, err
		}
		alloc.ContainersRaw = append(alloc.ContainersRaw, raw)
		alloc.Containers = append(alloc.Containers, n)
		alloc.UsedHigh = append(alloc.UsedHigh, useHigh[ms])
		alloc.ResourceUsage += raw * in.Shares[ms]
	}
	return alloc, nil
}

// naiveExplain renders naivePlan's merge tree the way Explain renders the
// template's; Explain must match it byte for byte.
func naiveExplain(in Input) (string, error) {
	alloc, err := naivePlan(in)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "service %s: SLA %.2fms (P%.0f), cluster util cpu=%.0f%% mem=%.0f%%\n",
		in.Graph.Service, in.SLA.Threshold, in.SLA.Percentile*100, in.CPUUtil*100, in.MemUtil*100)
	b.WriteString("merge tree (Algorithm 1; leaves are real microservices):\n")

	// Rebuild the merge tree with the final interval choices so the printed
	// parameters match the allocation exactly.
	useHigh := make(map[string]bool, len(alloc.Microservices))
	for i, ms := range alloc.Microservices {
		useHigh[ms] = alloc.UsedHigh[i]
	}
	root := buildMergeTree(in, useHigh)
	var render func(mn *mergeNode, depth int)
	render = func(mn *mergeNode, depth int) {
		indent := strings.Repeat("  ", depth+1)
		switch mn.kind {
		case kindLeaf:
			iv := "low"
			if useHigh[mn.ms] {
				iv = "high"
			}
			fmt.Fprintf(&b, "%s%s  [A=%.4g b=%.4g R=%.4g interval=%s]\n", indent, mn.ms, mn.A, mn.B, mn.R, iv)
		case kindSeq:
			fmt.Fprintf(&b, "%sSEQ*  [A=%.4g b=%.4g R=%.4g]  (Eq. 7-9)\n", indent, mn.A, mn.B, mn.R)
		case kindPar:
			fmt.Fprintf(&b, "%sPAR** [A=%.4g b=%.4g R=%.4g]  (Eq. 11-12)\n", indent, mn.A, mn.B, mn.R)
		}
		for _, c := range mn.children {
			render(c, depth+1)
		}
	}
	render(root, 0)

	b.WriteString("latency targets (Eq. 5 unwind):\n")
	for i, ms := range alloc.Microservices {
		fmt.Fprintf(&b, "  %-28s target %8.3fms  containers %4d (raw %.2f)\n",
			ms, alloc.Targets[ms], alloc.Containers[i], alloc.ContainersRaw[i])
	}
	fmt.Fprintf(&b, "total containers %d, resource usage %.6f\n", alloc.TotalContainers(), alloc.ResourceUsage)
	return b.String(), nil
}
