package experiments

import (
	"fmt"
	"math"
	"time"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/multiplex"
	"erms/internal/profiling"
	"erms/internal/scaling"
)

func init() {
	register("figScale", PlannerScale)
}

// scalePlanContext assembles the multi-service planner inputs for one
// exact-shape Alibaba-scale topology: per-service graphs over a shared pool,
// analytic models from the synthetic profiles, and workloads proportional to
// each microservice's fan-in.
func scalePlanContext(cfg apps.ScaleConfig) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	app := apps.ScaleTopology(cfg)
	cl := paperCluster()
	threads := make(map[string]int, len(app.Containers))
	shares := make(map[string]float64, len(app.Containers))
	for ms, spec := range app.Containers {
		threads[ms] = spec.Threads
		shares[ms] = cl.DominantShare(spec)
	}
	models := profiling.AnalyticModels(app.Profiles, threads, cluster.DefaultInterference)
	inputs := make(map[string]scaling.Input, len(app.Graphs))
	loads := make(map[string]map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		mss, counts := g.CallCounts()
		byMS := make(map[string]float64, len(mss))
		for i, ms := range mss {
			byMS[ms] = 10_000 * float64(counts[i])
		}
		inputs[g.Service] = scaling.Input{
			Graph:   g,
			SLA:     app.SLAs[g.Service],
			Models:  models,
			Shares:  shares,
			CPUUtil: 0.35,
			MemUtil: 0.25,
		}
		loads[g.Service] = byMS
	}
	return inputs, loads, app.Shared()
}

// plansBitIdentical reports whether two multi-service plans agree bit for bit
// in every float field and exactly in every count.
func plansBitIdentical(a, b *multiplex.Plan) bool {
	if a.Scheme != b.Scheme ||
		math.Float64bits(a.ResourceUsage) != math.Float64bits(b.ResourceUsage) ||
		len(a.Containers) != len(b.Containers) ||
		len(a.PerService) != len(b.PerService) {
		return false
	}
	for ms, n := range a.Containers {
		if b.Containers[ms] != n {
			return false
		}
	}
	for svc, aa := range a.PerService {
		ba := b.PerService[svc]
		if ba == nil || len(aa.Targets) != len(ba.Targets) {
			return false
		}
		if math.Float64bits(aa.ResourceUsage) != math.Float64bits(ba.ResourceUsage) {
			return false
		}
		for ms, v := range aa.Targets {
			if math.Float64bits(ba.Targets[ms]) != math.Float64bits(v) {
				return false
			}
		}
		for ms, v := range aa.ContainersRaw {
			if math.Float64bits(ba.ContainersRaw[ms]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// PlannerScale regenerates the planner-scalability comparison behind the
// paper's 22.5× Latency Target Computation speedup claim (§6.5.2), on this
// repo's exact-shape Alibaba-scale topologies: the naive per-window planner
// revalidates and re-merges every graph, while the compiled-template path
// (scaling.TemplateCache) re-evaluates only the per-window coefficients.
//
// Two tables are emitted. figScale carries only deterministic columns
// (topology shape, plan size, bit-identity of the two paths) and is pinned
// byte-identical across worker counts by the determinism tests; the timing
// table is wall-clock and excluded from those comparisons, like fig17.
func PlannerScale(quick bool) []*Table {
	type setting struct{ services, msPer, degree int }
	sizes := []setting{
		{50, 50, 10},
		{100, 50, 10},
		{200, 50, 10},
		{400, 50, 10},
	}
	if quick {
		sizes = []setting{
			{16, 20, 5},
			{40, 20, 5},
		}
	}
	det := &Table{
		ID:    "figScale",
		Title: "Planner at scale: compiled plan templates vs naive per-window planning (§5.3, §6.5.2)",
		Header: []string{"services", "ms/graph", "sharing degree",
			"microservices", "merged containers", "compiled == naive"},
	}
	timing := &Table{
		ID:     "figScale-time",
		Title:  "Planner at scale: per-window latency, naive vs compiled (wall-clock)",
		Header: []string{"services", "naive/window", "compiled/window", "speedup"},
	}
	reps := 5
	if quick {
		reps = 2
	}
	for _, s := range sizes {
		cfg := apps.ScaleConfig{
			Seed:                    42,
			Services:                s.services,
			MicroservicesPerService: s.msPer,
			SharingDegree:           s.degree,
		}
		inputs, loads, shared := scalePlanContext(cfg)

		naive, err := multiplex.PlanScheme(multiplex.SchemePriority, inputs, loads, shared)
		if err != nil {
			panic(err)
		}
		cache := scaling.NewTemplateCache()
		compiled, err := multiplex.PlanSchemeCached(multiplex.SchemePriority, inputs, loads, shared, cache)
		if err != nil {
			panic(err)
		}
		seen := make(map[string]bool)
		for _, in := range inputs {
			for _, ms := range in.Graph.Microservices() {
				seen[ms] = true
			}
		}
		nMS := len(seen)
		total := 0
		for _, n := range compiled.Containers {
			total += n
		}
		det.AddRow(
			fmt.Sprintf("%d", s.services),
			fmt.Sprintf("%d", s.msPer),
			fmt.Sprintf("%d", s.degree),
			fmt.Sprintf("%d", nMS),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%v", plansBitIdentical(naive, compiled)),
		)

		// Steady state for the compiled path: every window after the first
		// is a template hit. Warm is done (the cold window above compiled);
		// time `reps` windows of each path.
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := multiplex.PlanScheme(multiplex.SchemePriority, inputs, loads, shared); err != nil {
				panic(err)
			}
		}
		naivePer := time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := multiplex.PlanSchemeCached(multiplex.SchemePriority, inputs, loads, shared, cache); err != nil {
				panic(err)
			}
		}
		compiledPer := time.Since(start) / time.Duration(reps)
		speedup := float64(naivePer) / float64(compiledPer)
		timing.AddRow(
			fmt.Sprintf("%d", s.services),
			fmt.Sprint(naivePer),
			fmt.Sprint(compiledPer),
			fmt.Sprintf("%.1fx", speedup),
		)
	}
	det.AddNote("compiled == naive is a bit-level comparison of every target, raw count and usage")
	timing.AddNote("paper reports 22.5x for incremental Latency Target Computation at Alibaba scale (§6.5.2)")
	return []*Table{det, timing}
}
