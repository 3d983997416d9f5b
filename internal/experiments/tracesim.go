package experiments

import (
	"fmt"
	"time"

	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/cluster"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/sortutil"
	"erms/internal/stats"
)

func init() {
	register("fig16", Fig16)
	register("fig17", Scalability)
	register("fig18", Theorem1)
}

// Fig16 reproduces the large-scale trace-driven simulation (§6.5): the
// Taobao-shaped application (500 services × ~50 microservices, 300+ shared)
// is planned under every scheme using the same analytic models the
// (unaffordable-to-simulate) full cluster would be profiled into, mirroring
// how the paper replays traces rather than deploying Taobao.
func Fig16(quick bool) []*Table {
	cfg := apps.TaobaoConfig(5)
	if quick {
		cfg.Services = 120
	}
	app := apps.Alibaba(cfg)
	// Per-service workloads spread over an order of magnitude, like
	// production traffic.
	r := stats.NewRNG(17)
	rates := make(map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		rates[g.Service] = 2_000 * (0.5 + 4.5*r.Float64())
	}
	models := profiling.AnalyticModels(app.Profiles, app.Containers, cluster.DefaultInterference)
	// Keep the app's own per-service SLAs, floored to feasibility.
	for svc, s := range app.SLAs {
		if floor := slaFloor(app, svc, models, staticBackground.CPU, staticBackground.Mem); s.Threshold < floor*1.3 {
			s.Threshold = floor * 1.3
			app.SLAs[svc] = s
		}
	}
	pc := newContext(app, models, rates, 0, staticBackground.CPU, staticBackground.Mem)

	planners := []planner{
		ermsPlanner("erms", multiplex.SchemePriority),
		ermsPlanner("erms-ltc", multiplex.SchemeFCFS),
		baselinePlanner(baselines.Firm{}),
		baselinePlanner(baselines.GrandSLAm{}),
		baselinePlanner(baselines.Rhythm{}),
	}

	// The five planners share only read-only context; they fan out and the
	// result maps fill in planner order. Per-service counts are collected in
	// sorted service order so downstream float sums are bit-stable.
	results, err := parallel.Map(len(planners), func(i int) (*planResult, error) {
		res, err := planners[i].run(pc)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s: %w", planners[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		panic(err)
	}
	perSvcCounts := map[string][]float64{}
	totals := map[string]int{}
	for pi, p := range planners {
		res := results[pi]
		totals[p.name] = res.total()
		counts := make([]float64, 0, len(res.perService))
		for _, svc := range sortutil.Keys(res.perService) {
			counts = append(counts, float64(res.perService[svc].TotalContainers()))
		}
		perSvcCounts[p.name] = counts
	}

	a := cdfTable("fig16a", "CDF of containers required per service (Taobao-shaped trace)",
		planners, perSvcCounts, []float64{0.25, 0.5, 0.8, 0.95, 1.0})
	a.AddNote("paper: 80%% of services need <2000 containers under Erms vs ~6000 under GrandSLAm/Rhythm")

	b := &Table{
		ID:     "fig16b",
		Title:  "Total deployed containers and reduction factors",
		Header: []string{"scheme", "total containers", "vs erms", "avg per service"},
	}
	erms := float64(totals["erms"])
	for _, p := range planners {
		b.AddRow(p.name, fmt.Sprintf("%d", totals[p.name]),
			fmt.Sprintf("%.2fx", float64(totals[p.name])/erms),
			f1(stats.Mean(perSvcCounts[p.name])))
	}
	b.AddNote("paper: Erms reduces containers 1.6x on average; LTC alone 1.2x; priority adds up to 50%%")
	return []*Table{a, b}
}

// Scalability reproduces the §6.5.2 overhead measurements: latency target
// computation time versus dependency-graph size, and provisioning time for
// large placements. It stays sequential on purpose: the figure *is* a
// wall-clock measurement, and concurrent runs would contend for cores and
// inflate each other's timings.
func Scalability(quick bool) []*Table {
	sizes := []int{50, 200, 500, 1000, 2000}
	if quick {
		sizes = []int{50, 500, 1000}
	}
	t := &Table{
		ID:     "fig17",
		Title:  "Scaling overhead: Latency Target Computation time vs graph size (§6.5.2)",
		Header: []string{"graph nodes", "plan time"},
	}
	for _, n := range sizes {
		cfg := apps.AlibabaConfig{Seed: uint64(n), Services: 1, MeanGraphSize: n, SharedFrac: 0.5, PoolSize: n / 2}
		app := apps.Alibaba(cfg)
		models := profiling.AnalyticModels(app.Profiles, app.Containers, cluster.DefaultInterference)
		svc := app.Services()[0]
		floor := slaFloor(app, svc, models, 0.3, 0.3)
		pc := newContext(app, models, uniformRates(app, 10_000), floor*2, 0.3, 0.3)
		p := ermsPlanner("erms", multiplex.SchemePriority)
		// Warm once, then time.
		if _, err := p.run(pc); err != nil {
			panic(err)
		}
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := p.run(pc); err != nil {
				panic(err)
			}
		}
		t.AddRow(fmt.Sprintf("%d", app.Graphs[0].Len()), fmt.Sprint(time.Since(start)/reps))
	}
	t.AddNote("paper: ~15ms average, ~300ms for 1000+-microservice graphs on a Xeon")
	return []*Table{t}
}

// Theorem1 validates Appendix A numerically: across random symmetric
// scenarios, priority scheduling uses no more resources than non-sharing,
// which uses no more than FCFS sharing.
func Theorem1(quick bool) []*Table {
	n := 2000
	if quick {
		n = 500
	}
	// The shared RNG forces sequential scenario *generation* (draw order is
	// part of the figure's definition), but the closed-form evaluations are
	// pure and fan out over the pre-generated scenarios.
	r := stats.NewRNG(23)
	params := make([]multiplex.Theorem1Params, n)
	for i := 0; i < n; i++ {
		p := multiplex.Theorem1Params{
			AU: 0.002 + 0.01*r.Float64(), BU: 1 + r.Float64(), RU: 0.0001 + 0.0004*r.Float64(),
			AH: 0.0005 + 0.002*r.Float64(), BH: 1 + r.Float64(), RH: 0.0001 + 0.0004*r.Float64(),
			AP: 0.001 + 0.004*r.Float64(), BP: 0.5 + r.Float64(), RP: 0.0001 + 0.0004*r.Float64(),
			Gamma1: 1000 + 50000*r.Float64(), Gamma2: 1000 + 50000*r.Float64(),
		}
		slack := 20 + 200*r.Float64()
		p.SLA1 = slack + p.BU + p.BP
		p.SLA2 = slack + p.BH + p.BP
		params[i] = p
	}
	type verdict struct {
		ok, violated           bool
		savePrio, saveNonShare float64
	}
	verdicts, err := parallel.Map(n, func(i int) (verdict, error) {
		p := params[i]
		s, err1 := p.SharingFCFS()
		nn, err2 := p.NonSharing()
		o, err3 := p.PriorityUsage()
		if err1 != nil || err2 != nil || err3 != nil {
			return verdict{}, nil
		}
		return verdict{
			ok:           true,
			violated:     !(o <= nn+1e-9 && nn <= s+1e-9),
			savePrio:     1 - o/s,
			saveNonShare: 1 - nn/s,
		}, nil
	})
	if err != nil {
		panic(err)
	}
	violations := 0
	var savePriority, saveNonShare stats.Moments
	for _, v := range verdicts {
		if !v.ok {
			continue
		}
		if v.violated {
			violations++
		}
		savePriority.Add(v.savePrio)
		saveNonShare.Add(v.saveNonShare)
	}
	t := &Table{
		ID:     "fig18",
		Title:  "Theorem 1: RU(priority) <= RU(non-sharing) <= RU(FCFS sharing)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("random scenarios", fmt.Sprintf("%d", n))
	t.AddRow("ordering violations", fmt.Sprintf("%d", violations))
	t.AddRow("mean saving: priority vs FCFS", pct(savePriority.Mean()))
	t.AddRow("mean saving: non-sharing vs FCFS", pct(saveNonShare.Mean()))
	t.AddNote("§2.3 example: priority saved 40%% vs FCFS and 20%% vs non-sharing")
	return []*Table{t}
}
