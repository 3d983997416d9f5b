package multiplex

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// monolithicPlan is the map-based §5.3.2 pipeline IncrementalPlanner replays
// group by group, kept as its oracle: every service planned on name-keyed
// workload maps through the whole app at once — own workloads for the initial
// targets, AssignPriorities and ModifiedWorkloads (priority) or FCFSWorkloads
// (FCFS) for the final pass — then one merge over sorted names. Each service
// resolves its template in cache (nil: a private cache for the one call) and
// evaluates it with Template.Plan.
func monolithicPlan(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string, cache *scaling.TemplateCache) (*Plan, error) {
	if len(inputs) == 0 {
		return nil, errors.New("multiplex: no services")
	}
	for svc := range inputs {
		if _, ok := loads[svc]; !ok {
			return nil, fmt.Errorf("multiplex: no loads for service %s", svc)
		}
	}
	if cache == nil {
		cache = scaling.NewTemplateCache()
	}
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}

	// Each service's plan is independent, so the services fan out across the
	// worker pool. Results merge keyed by a sorted name list, so output is
	// identical at any worker count.
	svcs := make([]string, 0, len(inputs))
	for svc := range inputs {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	planAll := func(workloads map[string]map[string]float64) (map[string]*scaling.Allocation, error) {
		allocs, err := parallel.Map(len(svcs), func(i int) (*scaling.Allocation, error) {
			svc := svcs[i]
			in := inputs[svc]
			in.Workloads = workloads[svc]
			tpl, compiled, err := cache.Resolve(in)
			if err == nil {
				if !compiled {
					cache.AddHits(1)
				}
				var alloc *scaling.Allocation
				if alloc, err = tpl.Plan(in.Workloads, in.CPUUtil, in.MemUtil); err == nil {
					return alloc, nil
				}
			}
			return nil, fmt.Errorf("multiplex: service %s: %w", svc, err)
		})
		if err != nil {
			return nil, err
		}
		out := make(map[string]*scaling.Allocation, len(svcs))
		for i, svc := range svcs {
			out[svc] = allocs[i]
		}
		return out, nil
	}

	plan := &Plan{Scheme: scheme, Containers: make(map[string]int)}
	var err error
	switch scheme {
	case SchemeNonShared:
		// Each service plans with its own workload and deploys its own
		// exclusive containers, even at shared microservices.
		plan.PerService, err = planAll(copyLoads(loads))
		if err != nil {
			return nil, err
		}
		for _, svc := range sortutil.Keys(plan.PerService) {
			alloc := plan.PerService[svc]
			for i, n := range alloc.Containers {
				plan.Containers[alloc.Microservices[i]] += n
			}
			plan.ResourceUsage += alloc.ResourceUsage
		}
		return plan, nil

	case SchemeFCFS:
		plan.PerService, err = planAll(FCFSWorkloads(shared, loads))
		if err != nil {
			return nil, err
		}

	case SchemePriority:
		// 1. Initial targets from each service's own workload.
		initial, err := planAll(copyLoads(loads))
		if err != nil {
			return nil, err
		}
		// 2. Priorities from initial targets; 3. final plan from modified
		// cumulative workloads.
		plan.Ranks = AssignPriorities(initial, shared)
		plan.PerService, err = planAll(ModifiedWorkloads(plan.Ranks, loads))
		if err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("multiplex: unknown scheme %v", scheme)
	}

	// Merge (priority/FCFS): shared microservices deploy the max requirement
	// across services; private ones belong to exactly one service. Iterate
	// services and microservices in sorted order so the usage float sum is
	// bit-stable run to run.
	rawMax := make(map[string]float64)
	shareOf := make(map[string]float64)
	for _, svc := range sortutil.Keys(plan.PerService) {
		alloc := plan.PerService[svc]
		for i, ms := range alloc.Microservices {
			n, raw := alloc.Containers[i], alloc.ContainersRaw[i]
			if !sharedSet[ms] {
				plan.Containers[ms] += n
				plan.ResourceUsage += raw * inputs[svc].Shares[ms]
				continue
			}
			if n > plan.Containers[ms] {
				plan.Containers[ms] = n
			}
			if raw > rawMax[ms] {
				rawMax[ms] = raw
			}
			shareOf[ms] = inputs[svc].Shares[ms]
		}
	}
	for _, ms := range sortutil.Keys(rawMax) {
		plan.ResourceUsage += rawMax[ms] * shareOf[ms]
	}
	return plan, nil
}

// FCFSWorkloads models default FCFS sharing: every service sees the full
// aggregate workload at each shared microservice (all traffic can delay all
// traffic).
func FCFSWorkloads(shared []string, loads map[string]map[string]float64) map[string]map[string]float64 {
	sharedSet := make(map[string]bool, len(shared))
	for _, ms := range shared {
		sharedSet[ms] = true
	}
	// Fold service contributions in sorted order so each total is bit-stable
	// run to run.
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
		for ms, own := range byMS {
			if sharedSet[ms] {
				m[ms] = totals[ms]
			} else {
				m[ms] = own
			}
		}
		out[svc] = m
	}
	return out
}

func copyLoads(loads map[string]map[string]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(loads))
	for svc, byMS := range loads {
		m := make(map[string]float64, len(byMS))
		for ms, g := range byMS {
			m[ms] = g
		}
		out[svc] = m
	}
	return out
}

func TestFCFSWorkloadsAggregate(t *testing.T) {
	loads := map[string]map[string]float64{
		"svc1": {"P": 100, "X": 7},
		"svc2": {"P": 200},
	}
	got := FCFSWorkloads([]string{"P"}, loads)
	if got["svc1"]["P"] != 300 || got["svc2"]["P"] != 300 {
		t.Fatalf("fcfs workloads = %+v", got)
	}
	if got["svc1"]["X"] != 7 {
		t.Fatal("private microservice load changed")
	}
}

// appInputs builds the multi-service planner workload for an app on the
// paper cluster: analytic models of its profiles, dominant shares, and every
// service at one request rate, expanded into per-microservice call rates.
func appInputs(app *apps.App, rate float64) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	cl := cluster.NewPaperCluster()
	shares := make(map[string]float64, len(app.Containers))
	for ms, spec := range app.Containers {
		shares[ms] = cl.DominantShare(spec)
	}
	models := profiling.AnalyticModels(app.Profiles, app.Containers, cluster.DefaultInterference)
	inputs := make(map[string]scaling.Input, len(app.Graphs))
	loads := make(map[string]map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		mss, counts := g.CallCounts()
		byMS := make(map[string]float64, len(mss))
		for i, ms := range mss {
			byMS[ms] = rate * float64(counts[i])
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

// TestFreshPlannerMatchesOracleOnAppTopologies: on the three paper apps and a
// 60-service Alibaba-shaped app (graphs of 30 microservices on average: at the
// default 50, some of its generated SLAs are below their path intercepts),
// with analytic models, a fresh planner — what every figure plans with —
// gives the oracle's plan bit for bit at three rates under every scheme, and
// the oracle's error, word for word, when one service's SLA cannot be met.
func TestFreshPlannerMatchesOracleOnAppTopologies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		app   *apps.App
		rates []float64
	}{
		{"hotel", apps.HotelReservation(), []float64{5_000, 30_000, 60_000}},
		{"social", apps.SocialNetwork(), []float64{3_000, 15_000, 30_000}},
		{"media", apps.MediaService(), []float64{3_000, 15_000, 30_000}},
		{"alibaba", apps.Alibaba(apps.AlibabaConfig{Seed: 3, Services: 60, MeanGraphSize: 30}), []float64{1_000, 5_000, 20_000}},
	} {
		for _, rate := range tc.rates {
			inputs, loads, shared := appInputs(tc.app, rate)
			for _, scheme := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared} {
				ctx := fmt.Sprintf("%s at %v req/min, %v", tc.name, rate, scheme)
				want, err := monolithicPlan(scheme, inputs, loads, shared, nil)
				if err != nil {
					t.Fatalf("%s: oracle: %v", ctx, err)
				}
				got := planIncremental(t, NewIncrementalPlanner(nil), scheme, inputs, loads, shared, ctx)
				requirePlanBitIdentical(t, want, got, ctx)
			}
		}

		inputs, loads, shared := appInputs(tc.app, tc.rates[1])
		victim := tc.app.Graphs[len(tc.app.Graphs)/2].Service
		bad := inputs[victim]
		bad.SLA = workload.P95SLA(victim, 1e-6)
		inputs[victim] = bad
		_, wantErr := monolithicPlan(SchemePriority, inputs, loads, shared, nil)
		_, gotErr := NewIncrementalPlanner(nil).PlanScheme(SchemePriority, inputs, loads, shared)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s, %s infeasible: planner %v, oracle %v", tc.name, victim, gotErr, wantErr)
		}
	}
}

// TestDirtyScheduleMatchesOracle drives change-driven replanning on an
// Alibaba-shaped topology (100 services × 20 microservices, sharing degree 5):
// before each window the first 0, 10 or 50 % of the services get a fresh
// workload multiplier, which — sharing groups being aligned blocks of five
// consecutive services — makes the dirty closure exactly that prefix. At 1
// and 4 shards, a planner kept across windows matches the oracle over one
// warm template cache bit for bit on every window, ranks and per-service
// counts included, replans exactly the mutated services and skips the rest.
// Its speed on the full 1000×50×10 topology is BenchmarkIncrementalVsCompiled
// (scripts/bench.sh bench6) and, inside a live window, bench/'s
// scale1k-control.
func TestDirtyScheduleMatchesOracle(t *testing.T) {
	const services, windows = 100, 3
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 42, Services: services, MicroservicesPerService: 20, SharingDegree: 5,
	})
	base := copyLoads(loads)
	defer parallel.SetWorkers(0)
	for _, frac := range []float64{0, 0.1, 0.5} {
		victims := int(frac * services)
		mutate := func(window int) {
			mult := 1 + 0.01*float64(window+1)
			for i := 0; i < victims; i++ {
				svc := fmt.Sprintf("scale-svc-%05d", i)
				for ms, g := range base[svc] {
					loads[svc][ms] = g * mult
				}
			}
		}
		for _, shards := range []int{1, 2, 4, 16} {
			parallel.SetWorkers(shards)
			cache := scaling.NewTemplateCache()
			p := NewIncrementalPlanner(nil)
			for w := -1; w < windows; w++ {
				mutate(w)
				ctx := fmt.Sprintf("dirty %.0f%% shards=%d window %d", 100*frac, shards, w)
				want, err := monolithicPlan(SchemePriority, inputs, loads, shared, cache)
				if err != nil {
					t.Fatalf("%s: oracle: %v", ctx, err)
				}
				before := p.Stats()
				got := planIncremental(t, p, SchemePriority, inputs, loads, shared, ctx)
				requirePlanBitIdentical(t, want, got, ctx)
				after := p.Stats()
				dirty, skipped := after.DirtyServices-before.DirtyServices, after.SkippedServices-before.SkippedServices
				if w >= 0 && (dirty != uint64(victims) || skipped != uint64(services-victims)) {
					t.Fatalf("%s: replanned %d and skipped %d services, want the %d mutated and the other %d",
						ctx, dirty, skipped, victims, services-victims)
				}
			}
		}
		for svc, byMS := range base {
			for ms, g := range byMS {
				loads[svc][ms] = g
			}
		}
	}
}
