package experiments

import (
	"fmt"
	"time"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/provision"
	"erms/internal/stats"
	"erms/internal/workload"
)

func init() {
	register("fig19", DynamicGraphs)
	register("fig20", POPAblation)
}

// DynamicGraphs evaluates the paper's stated future work (§9): clustering
// dynamic dependency-graph variants into classes and scaling each class
// separately, versus over-provisioning one complete graph (§7). Variants
// are generated per service by pruning random subtrees of a base graph,
// mimicking input-dependent execution paths.
func DynamicGraphs(quick bool) []*Table {
	nVariants := 12
	services := 8
	if quick {
		nVariants = 8
		services = 5
	}
	r := stats.NewRNG(41)
	base := apps.Alibaba(apps.AlibabaConfig{Seed: 13, Services: services, MeanGraphSize: 30})
	models := profiling.AnalyticModels(base.Profiles, base.Containers, cluster.DefaultInterference)
	shares := sharesFor(base, cluster.NewPaperCluster())

	t := &Table{
		ID:     "fig19",
		Title:  "Dynamic dependency graphs: complete-graph vs class-based scaling (§7/§9 future work)",
		Header: []string{"service", "variants", "classes", "complete ctrs", "class ctrs", "saving"},
	}
	// Variant generation consumes the shared RNG, so it runs sequentially in
	// service order; the per-service class planning is then independent and
	// fans out.
	svcs := base.Services()
	variantsOf := make([][]*graph.Graph, len(svcs))
	for si, svc := range svcs {
		full := base.Graph(svc)
		// Variant = the base graph with one random root stage dropped (when
		// the root has several), emulating requests that skip a branch.
		for v := 0; v < nVariants; v++ {
			variantsOf[si] = append(variantsOf[si], pruneVariant(full, r))
		}
	}
	plans, err := parallel.Map(len(svcs), func(si int) (*core.DynamicGraphResult, error) {
		svc := svcs[si]
		floor := slaFloor(base, svc, models, 0.3, 0.3)
		return core.DynamicGraphPlan(svc, variantsOf[si], nil, 60_000,
			workload.P95SLA(svc, floor*2), models, shares, 0.3, 0.3, 0.6)
	})
	if err != nil {
		panic(err)
	}
	var totalSaving stats.Moments
	for si, svc := range svcs {
		res := plans[si]
		t.AddRow(svc, fmt.Sprintf("%d", nVariants), fmt.Sprintf("%d", res.Classes),
			fmt.Sprintf("%d", res.CompleteContainers), fmt.Sprintf("%d", res.ClassContainers),
			pct(res.Saving))
		totalSaving.Add(res.Saving)
	}
	t.AddNote("mean saving from class-based scaling: %s", pct(totalSaving.Mean()))
	t.AddNote("paper (§7): complete-graph scaling over-provisions because a request touches only a small subset")
	return []*Table{t}
}

// pruneVariant deep-copies the graph, dropping one random root stage when
// possible.
func pruneVariant(g *graph.Graph, r *stats.RNG) *graph.Graph {
	c := g.Clone()
	if len(c.Root.Stages) > 1 && r.Float64() < 0.8 {
		drop := r.Intn(len(c.Root.Stages))
		c.Root.Stages = append(c.Root.Stages[:drop], c.Root.Stages[drop+1:]...)
	}
	// Rebuild into a fresh graph so internal node bookkeeping stays
	// consistent after pruning.
	out := graph.New(g.Service, c.Root.Microservice)
	var copyInto func(dst *graph.Node, src *graph.Node)
	copyInto = func(dst *graph.Node, src *graph.Node) {
		for _, st := range src.Stages {
			names := make([]string, len(st))
			for i, ch := range st {
				names[i] = ch.Microservice
			}
			created := out.AddStage(dst, names...)
			for i, ch := range st {
				copyInto(created[i], ch)
			}
		}
	}
	copyInto(out.Root, c.Root)
	return out
}

// POPAblation sweeps the provisioning partition count (§5.4): more groups
// means faster placement decisions at some imbalance cost — the POP
// trade-off [31]. It stays sequential because the placement-time column is a
// wall-clock measurement; concurrent placements would contend for cores.
func POPAblation(quick bool) []*Table {
	containersToPlace := 600
	if quick {
		containersToPlace = 300
	}
	t := &Table{
		ID:     "fig20",
		Title:  "POP partitioning ablation: placement time vs utilization imbalance",
		Header: []string{"groups", "placement time", "imbalance", "hot-host containers"},
	}
	for _, groups := range []int{1, 2, 4, 8} {
		cl := cluster.New(40, cluster.PaperHost)
		for _, h := range cl.Hosts() {
			if h.ID%3 == 0 {
				cl.SetBackground(h.ID, workload.Interference{CPU: 0.6, Mem: 0.6})
			}
		}
		sched := &provision.InterferenceAware{Groups: groups}
		orch := kube.New(cl, sched)
		start := time.Now()
		if err := orch.Apply(cluster.PaperContainer("ms"), containersToPlace); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		hot := 0
		for _, h := range cl.Hosts() {
			if h.Background().CPU > 0.5 {
				hot += h.NumContainers()
			}
		}
		t.AddRow(fmt.Sprintf("%d", groups), fmt.Sprint(elapsed.Round(time.Microsecond)),
			f3(cl.Imbalance()), fmt.Sprintf("%d", hot))
	}
	t.AddNote("paper (§5.4): partitioned placement keeps provisioning ~200ms at production scale")
	return []*Table{t}
}
