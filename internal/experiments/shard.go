package experiments

import (
	"fmt"
	"time"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/multiplex"
	"erms/internal/profiling"
	"erms/internal/scaling"
)

func init() {
	register("figShard", PlannerShard)
}

// PlannerShard measures change-driven incremental planning against planning
// every window from scratch on the Alibaba-scale topology (1000 services × 50
// microservices × sharing degree 10; ROADMAP item 1): per window, only the
// sharing groups whose workloads changed replan, and the dirty groups fan out
// across shards.
//
// The dirty fraction sweeps 0% (pure skip), 10% (the headline BENCH_6
// setting) and 50%: before each window the first ⌈frac·services⌉ services
// get a fresh workload multiplier, which — because sharing groups on this
// topology are aligned blocks of SharingDegree consecutive services — makes
// the dirty closure exactly that prefix.
//
// Two tables are emitted. figShard carries only deterministic columns
// (topology shape, skip/dirty counters) and is pinned byte-identical across
// worker counts — and so across shard counts, one shard per worker — by the
// determinism tests; the timing table is wall-clock and excluded from those
// comparisons. That the kept planner's plans equal the from-scratch ones
// bit for bit on this schedule is multiplex's TestFigShardScheduleMatchesOracle.
func PlannerShard(quick bool) []*Table {
	services, msPer, degree, windows := 1000, 50, 10, 5
	if quick {
		services, msPer, degree, windows = 100, 20, 5, 3
	}
	fracs := []float64{0, 0.1, 0.5}

	det := &Table{
		ID:    "figShard",
		Title: "Incremental sharded planning vs monolithic compiled planner (change-driven skip, ROADMAP item 1)",
		Header: []string{"services", "ms/graph", "sharing degree", "dirty frac",
			"windows", "skipped", "replanned"},
	}
	timing := &Table{
		ID:     "figShard-time",
		Title:  "Incremental sharded planning: per-window latency vs monolithic compiled (wall-clock)",
		Header: []string{"services", "dirty frac", "from scratch/window", "incremental/window", "speedup"},
	}

	cfg := apps.ScaleConfig{
		Seed:                    42,
		Services:                services,
		MicroservicesPerService: msPer,
		SharingDegree:           degree,
	}
	inputs, loads, shared := scalePlanContext(cfg)
	base := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, g := range byMS {
			m[ms] = g
		}
		base[svc] = m
	}
	dirtySvcs := func(frac float64) []string {
		n := int(frac*float64(services) + 0.999999)
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("scale-svc-%05d", i))
		}
		return out
	}

	for _, frac := range fracs {
		victims := dirtySvcs(frac)
		mutate := func(window int) {
			mult := 1 + 0.01*float64(window+1)
			for _, svc := range victims {
				for ms, g := range base[svc] {
					loads[svc][ms] = g * mult
				}
			}
		}

		// The from-scratch arm is a fresh planner per window over one template
		// cache, so both arms pay only for planning, not for compiling.
		cache := scaling.NewTemplateCache()
		p := multiplex.NewIncrementalPlanner(nil)
		plan := func(planner *multiplex.IncrementalPlanner) time.Duration {
			start := time.Now()
			if _, err := planner.PlanScheme(multiplex.SchemePriority, inputs, loads, shared); err != nil {
				panic(err)
			}
			return time.Since(start)
		}

		// Cold window warms both paths; the measured windows that follow are
		// steady state.
		mutate(-1)
		plan(multiplex.NewIncrementalPlanner(cache))
		plan(p)
		cold := p.Stats()

		var scratchNs, incrNs time.Duration
		for w := 0; w < windows; w++ {
			mutate(w)
			scratchNs += plan(multiplex.NewIncrementalPlanner(cache))
			incrNs += plan(p)
		}
		warm := p.Stats()

		det.AddRow(
			fmt.Sprintf("%d", services),
			fmt.Sprintf("%d", msPer),
			fmt.Sprintf("%d", degree),
			fmt.Sprintf("%.0f%%", 100*frac),
			fmt.Sprintf("%d", windows),
			fmt.Sprintf("%d", warm.SkippedServices-cold.SkippedServices),
			fmt.Sprintf("%d", warm.DirtyServices-cold.DirtyServices),
		)
		timing.AddRow(
			fmt.Sprintf("%d", services),
			fmt.Sprintf("%.0f%%", 100*frac),
			fmt.Sprint(scratchNs/time.Duration(windows)),
			fmt.Sprint(incrNs/time.Duration(windows)),
			fmt.Sprintf("%.1fx", float64(scratchNs)/float64(incrNs)),
		)

		// Restore the base loads so the next fraction starts clean.
		for svc, byMS := range base {
			for ms, g := range byMS {
				loads[svc][ms] = g
			}
		}
	}
	det.AddNote("skipped/replanned count services over the post-warmup windows; the dirty closure of a workload change is the service's whole sharing group")
	timing.AddNote("BENCH_6.json gates the 10%% row at >=5x on the full 1000x50x10 topology")
	return []*Table{det, timing}
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
