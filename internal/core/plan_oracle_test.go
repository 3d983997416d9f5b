package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/drift"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// scratchLoads is Controller.Loads as it was before multiplicities were
// compiled and inner maps cached: a NodesFor scan per name, fresh maps.
func scratchLoads(app *apps.App, rates map[string]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		m := make(map[string]float64)
		for _, ms := range g.Microservices() {
			m[ms] = rates[g.Service] * float64(len(g.NodesFor(ms)))
		}
		out[g.Service] = m
	}
	return out
}

// requireSamePlan fails unless got is want bit for bit: every target, raw and
// integer count and interval of every service, the ranks, the merged counts
// and both usage sums.
func requireSamePlan(t *testing.T, want, got *multiplex.Plan, ctx string) {
	t.Helper()
	bits := math.Float64bits
	if got.Scheme != want.Scheme || bits(got.ResourceUsage) != bits(want.ResourceUsage) {
		t.Fatalf("%s: scheme/usage %v/%v, want %v/%v", ctx, got.Scheme, got.ResourceUsage, want.Scheme, want.ResourceUsage)
	}
	if !reflect.DeepEqual(got.Containers, want.Containers) {
		t.Fatalf("%s: merged container counts differ", ctx)
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Fatalf("%s: priority ranks differ", ctx)
	}
	if len(got.PerService) != len(want.PerService) {
		t.Fatalf("%s: %d services planned, want %d", ctx, len(got.PerService), len(want.PerService))
	}
	for svc, w := range want.PerService {
		g := got.PerService[svc]
		if g == nil || bits(g.ResourceUsage) != bits(w.ResourceUsage) ||
			len(g.Targets) != len(w.Targets) || len(g.ContainersRaw) != len(w.ContainersRaw) ||
			!reflect.DeepEqual(g.Microservices, w.Microservices) ||
			!reflect.DeepEqual(g.Containers, w.Containers) || !reflect.DeepEqual(g.UsedHigh, w.UsedHigh) {
			t.Fatalf("%s: allocation of %s differs", ctx, svc)
		}
		for i, ms := range w.Microservices {
			if v := w.Targets[ms]; bits(g.Targets[ms]) != bits(v) || bits(g.ContainersRaw[i]) != bits(w.ContainersRaw[i]) {
				t.Fatalf("%s: %s at %s: target %v raw %v, want %v and %v", ctx, svc, ms,
					g.Targets[ms], g.ContainersRaw[i], v, w.ContainersRaw[i])
			}
		}
	}
}

// TestControllerPlanMatchesOracleAcrossWindows drives the production planning
// path — Controller.Plan: cached loads and shared list, incremental planner,
// resolved group indices, model memo — for 32 consecutive windows against a
// fresh planner over a private cache, built out of the same cluster state,
// with the plan applied in between so the utilization the models see keeps
// drifting. Scattered services change rate every window; on the way a model
// is swapped, a host is lost, cluster capacity (every share) changes, an SLA
// is edited, memory utilization moves while CPU utilization holds, and one
// window is infeasible in two sharing groups at once. Every window's plan or
// error must equal the fresh planner's bit for bit. The window
// caches must show for what they are: a group no input of which moved hands
// back the very allocations of the window before, a shared microservice whose
// rank order held hands back the very rank map, and no plan ever returned is
// edited later. The paper apps bring irregular graphs (and, with Media
// Service, an app that shares nothing), the scale topology many groups, and
// the hand-built diamond app shared microservices that occupy several graph
// positions, a different number in each service (multiplicity > 1, which none
// of the others has).
func TestControllerPlanMatchesOracleAcrossWindows(t *testing.T) {
	defer parallel.SetWorkers(0)
	type subject struct {
		name   string
		app    func(seed uint64) *apps.App
		rate   float64
		scheme multiplex.Scheme
	}
	paper := func(build func() *apps.App) func(uint64) *apps.App {
		return func(uint64) *apps.App { return build() }
	}
	subjects := []subject{
		{"hotel", paper(apps.HotelReservation), 60_000, multiplex.SchemePriority},
		{"hotel-fcfs", paper(apps.HotelReservation), 60_000, multiplex.SchemeFCFS},
		{"hotel-nonshared", paper(apps.HotelReservation), 60_000, multiplex.SchemeNonShared},
		{"social", paper(apps.SocialNetwork), 30_000, multiplex.SchemePriority},
		{"media", paper(apps.MediaService), 30_000, multiplex.SchemePriority},
		{"scale", func(seed uint64) *apps.App {
			return apps.ScaleTopology(apps.ScaleConfig{Seed: seed, Services: 24, MicroservicesPerService: 10, SharingDegree: 4})
		}, 80_000, multiplex.SchemePriority},
		{"diamond", paper(diamondApp), 60_000, multiplex.SchemePriority},
		{"diamond-fcfs", paper(diamondApp), 60_000, multiplex.SchemeFCFS},
	}
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		for _, sub := range subjects {
			for seed := uint64(1); seed <= 3; seed++ {
				planAgainstOracle(t, fmt.Sprintf("%s seed %d workers %d", sub.name, seed, workers),
					sub.app(seed), sub.rate, sub.scheme, seed)
			}
		}
	}
}

// diamondApp is four services over three shared microservices: db is called
// twice per request by a, three times by b and once by c; cache by all four,
// twice by d; auth by c and d.
func diamondApp() *apps.App {
	a := graph.New("a", "a-entry")
	st := a.AddStage(a.Root, "cache", "db")
	a.AddStage(st[0], "db")
	b := graph.New("b", "b-entry")
	st = b.AddSequential(b.Root, "db", "cache", "db")
	b.AddStage(st[1], "db", "b-side")
	c := graph.New("c", "c-entry")
	st = c.AddStage(c.Root, "auth")
	c.AddStage(st[0], "cache", "db")
	d := graph.New("d", "d-entry")
	st = d.AddStage(d.Root, "auth", "cache")
	d.AddStage(st[1], "cache")
	app := &apps.App{
		Name:       "diamond",
		Graphs:     []*graph.Graph{a, b, c, d},
		Profiles:   map[string]sim.ServiceProfile{},
		SLAs:       map[string]workload.SLA{},
		Containers: map[string]cluster.ContainerSpec{},
	}
	for i, g := range app.Graphs {
		app.SLAs[g.Service] = workload.P95SLA(g.Service, 150+25*float64(i))
	}
	for i, ms := range app.Microservices() {
		app.Profiles[ms] = sim.ServiceProfile{BaseMs: 0.6 + 0.3*float64(i), CV: 0.5}
		spec := cluster.PaperContainer(ms)
		spec.Threads = 2
		app.Containers[ms] = spec
	}
	return app
}

func planAgainstOracle(t *testing.T, name string, app *apps.App, base float64, scheme multiplex.Scheme, seed uint64) {
	const windows = 32
	orch := kube.New(cluster.NewPaperCluster(), nil)
	c, err := New(app, orch, WithScheme(scheme))
	if err != nil {
		t.Fatal(err)
	}
	c.UseAnalyticModels()
	cl := orch.Cluster()
	r := stats.NewRNG(seed * 977)
	svcs := app.Services()
	shared := app.Shared()
	swappable := shared
	if len(shared) == 0 {
		swappable = app.Microservices()
	}

	rates := make(map[string]float64, len(svcs))
	for _, svc := range svcs {
		rates[svc] = base * (0.7 + 0.6*r.Float64())
	}
	type kept struct {
		window     int
		plan, copy *multiplex.Plan
	}
	var (
		earlier          []kept
		prev             *multiplex.Plan
		prevCPU, prevMem float64
		goodSLAs         map[string]workload.SLA
		sameAllocs       int // allocations a clean group handed back
		partial          int // windows that replanned some groups and skipped others
		sameRanks        int // rank maps an unchanged order handed back
	)
	for w := 0; w < windows; w++ {
		ctx := fmt.Sprintf("%s window %d", name, w)
		_, _ = orch.Repair() // best-effort, as in Reconciler.Step

		// What moves this window. Nothing does in 17-21, so that the applied
		// plans stop moving utilization and whole groups stay clean; 22 then
		// changes rates alone.
		changed := make(map[string]bool)
		edited := w == 0
		if w > 0 && (w < 17 || w > 21) {
			for k := 0; k < 1+len(svcs)/5; k++ {
				svc := svcs[r.Intn(len(svcs))]
				rates[svc] = base * (0.5 + 1.2*r.Float64())
				changed[svc] = true
			}
		}
		switch w {
		case 6: // drift: a (shared, where there is one) microservice got 1.8x slower
			ms := swappable[r.Intn(len(swappable))]
			c.Models[ms] = drift.NewScaledModel(c.Models[ms], 1.8)
			edited = true
		case 9: // host loss: replicas gone until the next Repair, means move
			if err := orch.FailNode(3); err != nil {
				t.Fatal(err)
			}
		case 12: // capacity change: every dominant share, every template
			if err := cl.SetHostSpec(5, cluster.HostSpec{Cores: 16, MemGB: 32}); err != nil {
				t.Fatal(err)
			}
			edited = true
		case 15: // SLA edit
			svc := svcs[r.Intn(len(svcs))]
			c.App.SLAs[svc] = workload.P95SLA(svc, c.App.SLAs[svc].Threshold*1.15)
			edited = true
		case 19: // memory pressure alone: the CPU mean keeps its bits
			if err := cl.SetBackground(7, workload.Interference{Mem: 0.35}); err != nil {
				t.Fatal(err)
			}
		case 24: // infeasible, in the last and the first service at once
			goodSLAs = map[string]workload.SLA{}
			for _, svc := range []string{svcs[len(svcs)-1], svcs[0]} {
				if _, done := goodSLAs[svc]; !done {
					goodSLAs[svc] = c.App.SLAs[svc]
					c.App.SLAs[svc] = workload.P95SLA(svc, 1e-6)
				}
			}
			edited = true
		case 25: // repaired
			for svc, sla := range goodSLAs {
				c.App.SLAs[svc] = sla
			}
			edited = true
		}

		inputs := c.planInputs()
		var cpu, mem float64
		for _, in := range inputs {
			cpu, mem = in.CPUUtil, in.MemUtil
		}
		want, wantErr := multiplex.NewIncrementalPlanner(nil).PlanScheme(scheme, inputs, scratchLoads(app, rates), app.Shared())
		before := c.Planner.Stats()
		got, gotErr := c.Plan(rates)
		if wantErr != nil || gotErr != nil {
			if w != 24 || wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error mismatch:\n  controller: %v\n  oracle:     %v", ctx, gotErr, wantErr)
			}
			continue
		}
		requireSamePlan(t, want, got, ctx)

		// The caches, seen from outside. With utilization and every binding
		// as they were, only the groups of the services whose rate moved
		// replan; the rest return last window's objects.
		if prev != nil && !edited && cpu == prevCPU && mem == prevMem {
			clean := 0
			for _, group := range c.Planner.Groups() {
				dirty := false
				for _, svc := range group {
					dirty = dirty || changed[svc]
				}
				for _, svc := range group {
					if !dirty && got.PerService[svc] != prev.PerService[svc] {
						t.Fatalf("%s: %s: a clean group's allocation was rebuilt", ctx, svc)
					}
				}
				if !dirty {
					clean += len(group)
				}
			}
			if skipped := int(c.Planner.Stats().SkippedServices - before.SkippedServices); skipped != clean {
				t.Fatalf("%s: planner skipped %d services, %d were clean", ctx, skipped, clean)
			}
			sameAllocs += clean
			if clean > 0 && clean < len(svcs) {
				partial++
			}
		}
		if prev != nil {
			for ms, bySvc := range got.Ranks {
				same := reflect.ValueOf(bySvc).Pointer() == reflect.ValueOf(prev.Ranks[ms]).Pointer()
				if equal := reflect.DeepEqual(bySvc, prev.Ranks[ms]); equal != same {
					t.Fatalf("%s: rank map of %s: equal to last window's %v, the same map %v", ctx, ms, equal, same)
				}
				if same {
					sameRanks++
				}
			}
		}
		earlier = append(earlier, kept{w, got, snapshotPlan(got)})
		for _, k := range earlier {
			if !reflect.DeepEqual(k.plan, k.copy) {
				t.Fatalf("%s edited the plan returned by window %d", ctx, k.window)
			}
		}
		prev, prevCPU, prevMem = got, cpu, mem
		if err := c.Apply(got); err != nil {
			t.Fatalf("%s: apply: %v", ctx, err)
		}
	}
	if sameAllocs == 0 {
		t.Fatalf("%s: no window left a group clean; the identity contract went untested", name)
	}
	if len(c.Planner.Groups()) > 2 && partial == 0 {
		t.Fatalf("%s: no window replanned some groups and skipped others", name)
	}
	if scheme == multiplex.SchemePriority && len(shared) > 0 && sameRanks == 0 {
		t.Fatalf("%s: no rank map survived a window", name)
	}
}

// TestLoadsReusesUnchangedServices pins the read-only contract of Loads: a
// service whose rate did not change gets the map it got last time, a changed
// one a new map (the old one, possibly still in a caller's hands, keeps its
// values), and every map equals the from-scratch expansion — before the first
// plan, when multiplicities come from the graphs, and after, when they come
// compiled from the templates.
func TestLoadsReusesUnchangedServices(t *testing.T) {
	c := hotelController(t)
	ptr := func(m map[string]float64) uintptr { return reflect.ValueOf(m).Pointer() }
	rates := hotelRates(4000)
	first := c.Loads(rates)
	if want := scratchLoads(c.App, rates); !reflect.DeepEqual(first, want) {
		t.Fatalf("loads before the first plan = %v, want %v", first, want)
	}
	if _, err := c.Plan(rates); err != nil {
		t.Fatal(err)
	}
	rates["search"] = 9000
	second := c.Loads(rates)
	if want := scratchLoads(c.App, rates); !reflect.DeepEqual(second, want) {
		t.Fatalf("loads after a plan = %v, want %v", second, want)
	}
	for svc := range rates {
		if same := ptr(first[svc]) == ptr(second[svc]); same != (svc != "search") {
			t.Fatalf("%s: same map handed out again = %v", svc, same)
		}
	}
	if got := first["search"]["search"]; got != 4000 {
		t.Fatalf("a handed-out map was edited: search load %v, want 4000", got)
	}

	// A replaced graph drops what was derived from the old one.
	g := c.App.Graphs[0].Clone()
	g.AddStage(g.Root, "extra")
	c.App.Graphs[0] = g
	third := c.Loads(rates)
	if want := scratchLoads(c.App, rates); !reflect.DeepEqual(third, want) {
		t.Fatalf("loads after a graph swap = %v, want %v", third, want)
	}
}
