package scaling

import (
	"fmt"
	"strings"
)

// Explain renders the Algorithm 1 merge tree and the resulting latency
// targets for one service as human-readable text — the Fig. 7/8 walkthrough
// for an arbitrary graph. It is intended for operators debugging why a
// microservice received its target.
func Explain(in Input) (string, error) {
	t, err := Compile(in)
	if err != nil {
		return "", err
	}
	var e Eval
	alloc, err := t.plan(&e, in.Workloads, in.CPUUtil, in.MemUtil)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "service %s: SLA %.2fms (P%.0f), cluster util cpu=%.0f%% mem=%.0f%%\n",
		in.Graph.Service, in.SLA.Threshold, in.SLA.Percentile*100, in.CPUUtil*100, in.MemUtil*100)
	b.WriteString("merge tree (Algorithm 1; leaves are real microservices):\n")

	// The coefficients are the final pass's, so the printed parameters match
	// the allocation exactly.
	var render func(oi int32, depth int)
	render = func(oi int32, depth int) {
		indent := strings.Repeat("  ", depth+1)
		op := t.ops[oi]
		switch op.kind {
		case opLeaf:
			iv := "low"
			if e.UsedHigh[op.ms] {
				iv = "high"
			}
			fmt.Fprintf(&b, "%s%s  [A=%.4g b=%.4g R=%.4g interval=%s]\n", indent, t.mss[op.ms], e.a[oi], e.b[oi], e.r[oi], iv)
		case opSeq:
			fmt.Fprintf(&b, "%sSEQ*  [A=%.4g b=%.4g R=%.4g]  (Eq. 7-9)\n", indent, e.a[oi], e.b[oi], e.r[oi])
		case opPar:
			fmt.Fprintf(&b, "%sPAR** [A=%.4g b=%.4g R=%.4g]  (Eq. 11-12)\n", indent, e.a[oi], e.b[oi], e.r[oi])
		}
		for _, k := range t.kids[op.kidStart:op.kidEnd] {
			render(k, depth+1)
		}
	}
	render(t.root, 0)

	b.WriteString("latency targets (Eq. 5 unwind):\n")
	for _, ms := range SortedTargets(alloc) {
		fmt.Fprintf(&b, "  %-28s target %8.3fms  containers %4d (raw %.2f)\n",
			ms, alloc.Targets[ms], alloc.Containers[ms], alloc.ContainersRaw[ms])
	}
	fmt.Fprintf(&b, "total containers %d, resource usage %.6f\n", alloc.TotalContainers(), alloc.ResourceUsage)
	return b.String(), nil
}
