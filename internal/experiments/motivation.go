package experiments

import (
	"fmt"
	"math"
	"sort"

	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

func init() {
	register("fig2", Fig2)
	register("fig3", Fig3)
	register("fig4", Fig4)
	register("fig5", Fig5)
	register("fig8", Fig8)
	register("fig9", Fig9)
}

// Fig2 reproduces the sharing-degree CDF of the Alibaba traces: the fraction
// of microservices shared by more than a given number of online services.
func Fig2(quick bool) []*Table {
	cfg := apps.Fig2Config(1)
	if quick {
		cfg.Services = 300
		cfg.MeanGraphSize = 120
		cfg.PoolSize = 700
	}
	app := apps.Alibaba(cfg)
	deg := app.SharingDegree()
	degrees := make([]float64, 0, len(deg))
	for _, d := range deg {
		degrees = append(degrees, float64(d))
	}
	sort.Float64s(degrees)

	t := &Table{
		ID:     "fig2",
		Title:  "CDF of microservices shared by N online services (Alibaba-shaped topology)",
		Header: []string{"shared by > N services", "fraction of microservices"},
	}
	// Thresholds proportional to the generated service count so the quick
	// mode preserves the shape.
	scale := float64(cfg.Services) / 1000.0
	seen := map[float64]bool{}
	for _, n := range []float64{0, 1, 4, 9, 24, 49, 99, 199, 499} {
		thr := math.Round(n * scale)
		if n > 0 && thr < 1 {
			thr = 1
		}
		if seen[thr] {
			continue
		}
		seen[thr] = true
		over := 0
		for _, d := range degrees {
			if d > thr {
				over++
			}
		}
		t.AddRow(fmt.Sprintf("%.0f", thr), pct(float64(over)/float64(len(degrees))))
	}
	over100 := 0
	thr100 := math.Round(100 * scale)
	for _, d := range degrees {
		if d > thr100 {
			over100++
		}
	}
	t.AddNote("paper: ~40%% of microservices are shared by >100 of 1000+ services")
	t.AddNote("measured: %.1f%% shared by >%d of %d services (scale substitution: synthetic topology)",
		100*float64(over100)/float64(len(degrees)), int(thr100), cfg.Services)
	return []*Table{t}
}

// fig3Conditions are the host states of Fig. 3 (CPU%, Mem%).
var fig3Conditions = []workload.Interference{
	{CPU: 0.10, Mem: 0.10},
	{CPU: 0.47, Mem: 0.35},
	{CPU: 0.27, Mem: 0.62},
}

// fig3Collect runs one microservice at one workload under one host condition
// and returns per-minute profiling samples.
func fig3Collect(rate float64, bg workload.Interference, seed uint64, windowMin float64) []profiling.Sample {
	g := graph.New("svc", "ms")
	cl := cluster.New(1, cluster.PaperHost)
	if _, err := cl.Place(cluster.PaperContainer("ms"), 0); err != nil {
		panic(err)
	}
	cl.SetBackground(0, bg)
	res, err := sim.Run(sim.Config{
		Seed:         seed,
		Cluster:      cl,
		Interference: cluster.DefaultInterference,
		Profiles:     map[string]sim.ServiceProfile{"ms": {BaseMs: 20, CV: 0.5}},
		Graphs:       []*graph.Graph{g},
		Patterns:     map[string]workload.Pattern{"svc": workload.Static{Rate: rate}},
		DurationMin:  windowMin + 0.5,
		WarmupMin:    0.5,
	}, sim.PartitionOpts{})
	if err != nil {
		panic(err)
	}
	return profiling.FromMinuteSamples(res.Samples)["ms"]
}

// Fig3 reproduces the P95-latency-vs-workload curves: piece-wise linear with
// an interference-dependent knee and slope, comparing ground truth (T) from
// the simulator against the fitted piece-wise model (F). Each host condition
// is swept over fractions of its own saturation point, as a real profiling
// campaign would (overload produces unbounded latencies, not data points).
func Fig3(quick bool) []*Table {
	fracs := []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.88}
	windowMin := 3.0
	if quick {
		fracs = []float64{0.1, 0.4, 0.7, 0.88}
		windowMin = 2
	}
	t := &Table{
		ID:     "fig3",
		Title:  "P95 microservice latency vs per-container workload (T=simulated truth, F=piece-wise fit)",
		Header: []string{"load (frac of sat)"},
	}
	type point struct {
		workload, truth, fitted float64
	}
	type curve struct {
		cond   workload.Interference
		points []point
	}
	ref := profiling.NewAnalytic(sim.ServiceProfile{BaseMs: 20, CV: 0.5}, 4, cluster.DefaultInterference)
	// Every (condition, load-fraction) profiling run is an independent
	// simulation with a seed derived from its grid position (the same
	// 100*(i+1)+fracIdx values the sequential sweep used); the fit consumes
	// the samples merged in grid order.
	collected, err := parallel.Map(len(fig3Conditions)*len(fracs), func(j int) ([]profiling.Sample, error) {
		ci, fi := j/len(fracs), j%len(fracs)
		cond := fig3Conditions[ci]
		sat := ref.Saturation(cond.CPU, cond.Mem)
		seed := uint64(100*(ci+1)) + uint64(fi)
		return fig3Collect(fracs[fi]*sat, cond, seed, windowMin), nil
	})
	if err != nil {
		panic(err)
	}
	var all []profiling.Sample
	curves := make([]*curve, len(fig3Conditions))
	for i, cond := range fig3Conditions {
		t.Header = append(t.Header,
			fmt.Sprintf("T(%.0f%%,%.0f%%)", cond.CPU*100, cond.Mem*100),
			fmt.Sprintf("F(%.0f%%,%.0f%%)", cond.CPU*100, cond.Mem*100))
		c := &curve{cond: cond}
		for fi := range fracs {
			samples := collected[i*len(fracs)+fi]
			if len(samples) == 0 {
				continue
			}
			var w, l float64
			for _, s := range samples {
				w += s.Workload
				l += s.TailMs
			}
			c.points = append(c.points, point{workload: w / float64(len(samples)), truth: l / float64(len(samples))})
			all = append(all, samples...)
		}
		curves[i] = c
	}
	model, err := profiling.Fit("ms", all, profiling.FitConfig{MinBucket: 4})
	if err != nil {
		panic(err)
	}
	for _, c := range curves {
		for pi := range c.points {
			c.points[pi].fitted = model.Predict(c.points[pi].workload, c.cond.CPU, c.cond.Mem)
		}
	}
	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for _, c := range curves {
			if fi < len(c.points) {
				row = append(row, f1(c.points[fi].truth), f1(c.points[fi].fitted))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	acc := profiling.Evaluate(model, all)
	t.AddNote("fit accuracy over all points: %s (paper: 83-88%%)", pct(acc))
	t.AddNote("same load fraction = fewer absolute req/min on hotter hosts: the knee moves earlier (x-axes differ)")
	t.AddNote("paper: slope past the knee steepens up to 5x under interference")
	return []*Table{t}
}

// fig4App builds the Fig. 4 two-microservice service: userTimeline (U,
// workload-sensitive) calls postStorage (P) sequentially.
func fig4App() *apps.App {
	g := graph.New("read-timeline", "user-timeline")
	g.AddStage(g.Root, "post-storage")
	// Equal base service times: the two microservices look identical to a
	// mean-latency profile. user-timeline's single worker thread makes its
	// latency climb 8x faster in the workload — the sensitivity asymmetry
	// Fig. 4 is about, invisible to mean-based splits.
	profiles := map[string]sim.ServiceProfile{
		"user-timeline": {BaseMs: 1.5, CV: 0.7},
		"post-storage":  {BaseMs: 1.5, CV: 0.5},
	}
	uSpec := cluster.PaperContainer("user-timeline")
	uSpec.Threads = 1
	pSpec := cluster.PaperContainer("post-storage")
	pSpec.Threads = 8
	app := &apps.App{
		Name:     "fig4",
		Graphs:   []*graph.Graph{g},
		Profiles: profiles,
		SLAs:     map[string]workload.SLA{"read-timeline": workload.P95SLA("read-timeline", 100)},
		Containers: map[string]cluster.ContainerSpec{
			"user-timeline": uSpec,
			"post-storage":  pSpec,
		},
	}
	return app
}

// Fig4 reproduces the motivating experiment: latency targets and normalized
// resource usage for the U→P chain under Erms, GrandSLAm, and Rhythm at low
// and high workload.
func Fig4(quick bool) []*Table {
	app := fig4App()
	targets := &Table{
		ID:     "fig4a",
		Title:  "Latency targets for U (user-timeline) and P (post-storage), ms",
		Header: []string{"setting", "scheme", "target U", "target P"},
	}
	usage := &Table{
		ID:     "fig4b",
		Title:  "Total resource usage normalized to Erms (lower is better)",
		Header: []string{"setting", "erms", "grandslam", "rhythm"},
	}
	for _, setting := range []struct {
		name string
		rate float64
	}{{"low-workload", 30_000}, {"high-workload", 120_000}} {
		// SLA 24ms sits inside both microservices' achievable latency bands,
		// so targets (not capacity) drive the allocation; utilization 0 for
		// everyone isolates target computation from interference-awareness.
		pc := newContext(app, modelsFor(app, cluster.DefaultInterference), uniformRates(app, setting.rate), 24, 0, 0)
		rawUsage := map[string]float64{}
		for _, p := range []planner{
			ermsPlanner("erms", multiplex.SchemePriority),
			baselinePlanner(baselines.GrandSLAm{}),
			baselinePlanner(baselines.Rhythm{}),
		} {
			res, err := p.run(pc)
			if err != nil {
				panic(err)
			}
			alloc := res.perService["read-timeline"]
			targets.AddRow(setting.name, p.name,
				f1(alloc.Targets["user-timeline"]), f1(alloc.Targets["post-storage"]))
			// Raw (fractional) Σ n·R is the Eq. 2 objective the paper
			// compares; integer rounding at container counts this small
			// would hide the differences.
			for _, svc := range sortutil.Keys(res.perService) {
				rawUsage[p.name] += res.perService[svc].ResourceUsage
			}
		}
		usage.AddRow(setting.name,
			f2(1.0),
			f2(rawUsage["grandslam"]/rawUsage["erms"]),
			f2(rawUsage["rhythm"]/rawUsage["erms"]))
	}
	targets.AddNote("paper: Erms assigns U the higher target since its latency grows faster with workload")
	usage.AddNote("paper: baselines need up to 58%% more (heavy) and 6x (light) containers than Erms")
	return []*Table{targets, usage}
}

// fig5App builds the §2.3 multiplexing scenario: svc1 = userTimeline→postStorage,
// svc2 = homeTimeline→postStorage, with U more sensitive than H.
func fig5App() *apps.App {
	g1 := graph.New("svc1", "user-timeline")
	g1.AddStage(g1.Root, "post-storage")
	g2 := graph.New("svc2", "home-timeline")
	g2.AddStage(g2.Root, "post-storage")
	return &apps.App{
		Name:   "fig5",
		Graphs: []*graph.Graph{g1, g2},
		// Service times at the DeathStarBench read-path scale, so the 300ms
		// SLA of §2.3 genuinely binds for svc1 (whose U is the sensitive
		// microservice) while svc2 has slack — the asymmetry priority
		// scheduling exploits.
		Profiles: map[string]sim.ServiceProfile{
			"user-timeline": {BaseMs: 32, CV: 0.7},
			"home-timeline": {BaseMs: 8, CV: 0.4},
			"post-storage":  {BaseMs: 12, CV: 0.5},
		},
		SLAs: map[string]workload.SLA{
			"svc1": workload.P95SLA("svc1", 300),
			"svc2": workload.P95SLA("svc2", 300),
		},
		Containers: map[string]cluster.ContainerSpec{
			"user-timeline": cluster.PaperContainer("user-timeline"),
			"home-timeline": cluster.PaperContainer("home-timeline"),
			"post-storage":  cluster.PaperContainer("post-storage"),
		},
	}
}

// Fig5 reproduces the §2.3 experiment: CPU cores needed to satisfy both
// 300ms SLAs at 40k req/min per service under FCFS sharing, non-sharing, and
// Erms' priority scheduling — validated end-to-end in the simulator.
func Fig5(quick bool) []*Table {
	app := fig5App()
	rates := uniformRates(app, 40_000)
	duration, warmup := 2.5, 0.5
	if quick {
		duration = 1.5
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Shared-microservice schemes at 40k req/min per service, SLA 300ms (§2.3)",
		Header: []string{"scheme", "CPU cores", "containers", "sim P95 svc1", "sim P95 svc2", "violations"},
	}
	pc := newContext(app, modelsFor(app, cluster.DefaultInterference), rates, 300, 0.2, 0.2)
	// The three schemes plan and simulate independently (shared seed 5, own
	// cluster each); rows land in scheme order.
	schemes := []multiplex.Scheme{multiplex.SchemeFCFS, multiplex.SchemeNonShared, multiplex.SchemePriority}
	rows, err := parallel.Map(len(schemes), func(si int) ([]string, error) {
		scheme := schemes[si]
		plan, err := ermsPlanner(scheme.String(), scheme).run(pc)
		if err != nil {
			return nil, err
		}
		cores := 0.0
		for _, ms := range sortutil.Keys(plan.merged) {
			cores += float64(plan.merged[ms]) * app.Containers[ms].CPU
		}
		// End-to-end validation in the simulator.
		cl := cluster.New(20, cluster.PaperHost)
		for _, h := range cl.Hosts() {
			cl.SetBackground(h.ID, workload.Interference{CPU: 0.2, Mem: 0.2})
		}
		// Sorted placement order: map iteration would randomize container
		// order and, through round-robin routing, the simulated numbers.
		i := 0
		for _, ms := range sortutil.Keys(plan.merged) {
			for k := 0; k < plan.merged[ms]; k++ {
				if _, err := cl.Place(app.Containers[ms], i%cl.NumHosts()); err != nil {
					return nil, err
				}
				i++
			}
		}
		cfg := sim.Config{
			Seed:         5,
			Cluster:      cl,
			Interference: cluster.DefaultInterference,
			Profiles:     app.Profiles,
			Graphs:       app.Graphs,
			Patterns: map[string]workload.Pattern{
				"svc1": workload.Static{Rate: rates["svc1"]},
				"svc2": workload.Static{Rate: rates["svc2"]},
			},
			SLAs:        map[string]workload.SLA{"svc1": pc.slas["svc1"], "svc2": pc.slas["svc2"]},
			DurationMin: duration + warmup,
			WarmupMin:   warmup,
			Delta:       0.05,
			Priorities:  plan.ranks, // nil except under the priority scheme
		}
		res, err := sim.Run(cfg, sim.PartitionOpts{})
		if err != nil {
			return nil, err
		}
		viol := math.Max(res.PerService["svc1"].ViolationRate(), res.PerService["svc2"].ViolationRate())
		return []string{scheme.String(), f1(cores), fmt.Sprintf("%d", plan.total()),
			f1(res.PerService["svc1"].P95()), f1(res.PerService["svc2"].P95()), pct(viol)}, nil
	})
	if err != nil {
		panic(err)
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("paper: FCFS 10.5 cores, non-sharing 9, priority 7.5 (priority saves 40%% vs FCFS, 20%% vs non-sharing)")
	t.AddNote("note: non-sharing rows simulate the merged pool; its per-service partitioning is reflected in the plan only")
	return []*Table{t}
}

// Fig8 walks Algorithm 1 on the Fig. 7 example graph: T calls Url and U in
// parallel, then C, and shows the computed latency targets and containers.
func Fig8(bool) []*Table {
	g := graph.New("example", "T")
	g.AddStage(g.Root, "Url", "U")
	g.AddStage(g.Root, "C")
	profiles := map[string]sim.ServiceProfile{
		"T": {BaseMs: 0.5}, "Url": {BaseMs: 3}, "U": {BaseMs: 2}, "C": {BaseMs: 1.5},
	}
	models := profiling.AnalyticModels(profiles, nil, cluster.DefaultInterference)
	cl := cluster.NewPaperCluster()
	shares := map[string]float64{}
	workloads := map[string]float64{}
	for ms := range profiles {
		shares[ms] = cl.DominantShare(cluster.PaperContainer(ms))
		workloads[ms] = 30_000
	}
	in := scaling.Input{
		Graph:     g,
		SLA:       workload.P95SLA("example", 60),
		Models:    models,
		Shares:    shares,
		Workloads: workloads,
		CPUUtil:   0.2, MemUtil: 0.2,
	}
	alloc, err := scaling.Plan(in)
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "fig8",
		Title:  "Algorithm 1 on the Fig. 7 graph: merge order and latency targets (SLA 60ms)",
		Header: []string{"microservice", "latency target ms", "containers", "interval"},
	}
	for i, ms := range alloc.Microservices {
		iv := "low"
		if alloc.UsedHigh[i] {
			iv = "high"
		}
		t.AddRow(ms, f2(alloc.Targets[ms]), fmt.Sprintf("%d", alloc.Containers[i]), iv)
	}
	var order []string
	for _, n := range g.TwoTierInvocations() {
		order = append(order, n.Microservice)
	}
	t.AddNote("two-tier merge order (deepest first): %v", order)
	t.AddNote("parallel pair {Url,U} receives equal virtual targets; targets along T→{Url|U}→C sum to the SLA")
	if math.Abs(alloc.Targets["Url"]-alloc.Targets["U"]) > 1e-9 {
		t.AddNote("WARNING: parallel targets differ — unexpected")
	}
	return []*Table{t}
}

// Fig9 sweeps the probabilistic-priority parameter δ at a shared
// microservice near saturation and reports the P95 of the high- and
// low-priority services.
func Fig9(quick bool) []*Table {
	deltas := []float64{0, 0.01, 0.05, 0.1, 0.2}
	duration := 2.5
	if quick {
		deltas = []float64{0, 0.05, 0.2}
		duration = 1.5
	}
	t := &Table{
		ID:     "fig9",
		Title:  "Response time vs δ at a shared microservice (P95, ms)",
		Header: []string{"delta", "high-priority P95", "low-priority P95"},
	}
	// One independent simulation per δ (all with seed 77, as before).
	type hilo struct{ hi, lo float64 }
	points, err := parallel.Map(len(deltas), func(i int) (hilo, error) {
		g1 := graph.New("hi", "P")
		g2 := graph.New("lo", "P")
		cl := cluster.New(2, cluster.PaperHost)
		for k := 0; k < 2; k++ {
			if _, err := cl.Place(cluster.PaperContainer("P"), k); err != nil {
				return hilo{}, err
			}
		}
		res, err := sim.Run(sim.Config{
			Seed:     77,
			Cluster:  cl,
			Profiles: map[string]sim.ServiceProfile{"P": {BaseMs: 2, CV: 0.5}},
			Graphs:   []*graph.Graph{g1, g2},
			Patterns: map[string]workload.Pattern{
				"hi": workload.Static{Rate: 112_000},
				"lo": workload.Static{Rate: 112_000},
			},
			Priorities:  map[string]map[string]int{"P": {"hi": 0, "lo": 1}},
			Delta:       deltas[i],
			DurationMin: duration + 0.5,
			WarmupMin:   0.5,
		}, sim.PartitionOpts{})
		if err != nil {
			return hilo{}, err
		}
		return hilo{hi: res.PerService["hi"].P95(), lo: res.PerService["lo"].P95()}, nil
	})
	if err != nil {
		panic(err)
	}
	var hi0, lo0 float64
	for i, d := range deltas {
		if i == 0 {
			hi0, lo0 = points[i].hi, points[i].lo
		}
		t.AddRow(f2(d), f1(points[i].hi), f1(points[i].lo))
	}
	t.AddNote("paper: δ 0→0.05 costs high-priority ≈5%% and improves low-priority ≥20%%; baseline at δ=0: hi=%.1f lo=%.1f", hi0, lo0)
	return []*Table{t}
}
