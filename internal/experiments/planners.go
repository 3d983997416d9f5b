package experiments

import (
	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/cluster"
	"erms/internal/multiplex"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/workload"
)

// planContext packages everything a planner needs for one (app, rates, SLA)
// setting.
type planContext struct {
	app    *apps.App
	models map[string]profiling.Model
	shares map[string]float64
	loads  map[string]map[string]float64
	slas   map[string]workload.SLA
	// cpu/mem are the cluster-average utilizations. Erms feeds them into its
	// interference-aware models; the baselines are interference-unaware by
	// construction (§2.2) and always model an idle host.
	cpu, mem float64
	stats    map[string]baselines.MSStats
}

// planResult is a planner's outcome for one setting.
type planResult struct {
	// merged is the deployed container count per microservice (shared
	// microservices deduplicated per the scheme).
	merged map[string]int
	// perService holds each service's own allocation.
	perService map[string]*scaling.Allocation
	// ranks are the per-microservice service priorities of the plan (Erms
	// under the priority scheme); nil for planners that do not prioritize.
	ranks map[string]map[string]int
}

// total sums merged container counts.
func (r *planResult) total() int {
	t := 0
	for _, n := range r.merged {
		t += n
	}
	return t
}

// planner is one resource-management policy under comparison.
type planner struct {
	name string
	run  func(pc planContext) (*planResult, error)
}

// ermsPlanner plans with Erms' Latency Target Computation under the given
// shared-microservice scheme (priority = full Erms; FCFS = the LTC-only
// ablation of §6.4.1).
func ermsPlanner(name string, scheme multiplex.Scheme) planner {
	return planner{name: name, run: func(pc planContext) (*planResult, error) {
		inputs := make(map[string]scaling.Input, len(pc.app.Graphs))
		for _, g := range pc.app.Graphs {
			inputs[g.Service] = scaling.Input{
				Graph:   g,
				SLA:     pc.slas[g.Service],
				Models:  pc.models,
				Shares:  pc.shares,
				CPUUtil: pc.cpu,
				MemUtil: pc.mem,
			}
		}
		plan, err := multiplex.NewIncrementalPlanner(nil).PlanScheme(scheme, inputs, pc.loads, pc.app.Shared())
		if err != nil {
			return nil, err
		}
		return &planResult{merged: plan.Containers, perService: plan.PerService, ranks: plan.Ranks}, nil
	}}
}

// baselinePlanner plans every service independently under a baseline
// autoscaler (FCFS aggregation at shared microservices, max-merge).
func baselinePlanner(s baselines.Autoscaler) planner {
	return planner{name: s.Name(), run: func(pc planContext) (*planResult, error) {
		per, merged, err := baselines.PlanServices(s, baselineInputs(pc), pc.loads, pc.app.Shared())
		if err != nil {
			return nil, err
		}
		return &planResult{merged: merged, perService: per}, nil
	}}
}

// baselineInputs is every service's baseline input in the setting, with
// the workloads left for the planning pass to fill.
func baselineInputs(pc planContext) map[string]baselines.Input {
	inputs := make(map[string]baselines.Input, len(pc.app.Graphs))
	for _, g := range pc.app.Graphs {
		inputs[g.Service] = baselines.Input{
			Graph:  g,
			SLA:    pc.slas[g.Service],
			Models: pc.models,
			Shares: pc.shares,
			Stats:  pc.stats,
			// Baseline profiles were collected under the same colocated
			// conditions, so sizing sees the same average interference;
			// what they lack is the workload- and topology-aware target
			// split (and Fig. 15's interference-aware placement).
			CPUUtil: pc.cpu,
			MemUtil: pc.mem,
		}
	}
	return inputs
}

// defaultPlanners is the §6.3 comparison set.
func defaultPlanners() []planner {
	return []planner{
		ermsPlanner("erms", multiplex.SchemePriority),
		baselinePlanner(baselines.Firm{}),
		baselinePlanner(baselines.GrandSLAm{}),
		baselinePlanner(baselines.Rhythm{}),
	}
}

// newContext assembles a planContext for an app and its models at the given
// per-service request rates, with SLA thresholds scaled to `slaMs` for every
// service (0 keeps the app defaults).
func newContext(app *apps.App, models map[string]profiling.Model, rates map[string]float64, slaMs float64, cpu, mem float64) planContext {
	slas := make(map[string]workload.SLA, len(app.SLAs))
	for svc, s := range app.SLAs {
		if slaMs > 0 {
			s.Threshold = slaMs
		}
		slas[svc] = s
	}
	loads := make(map[string]map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		loads[g.Service] = g.CallRates(rates[g.Service])
	}
	return planContext{
		app:    app,
		models: models,
		shares: sharesFor(app, cluster.NewPaperCluster()),
		loads:  loads,
		slas:   slas,
		cpu:    cpu,
		mem:    mem,
		stats:  statsFor(app, models),
	}
}

// settingContext is the planContext of one setting: every service of app at
// the same request rate under background interference bg, on the app's
// analytic models, each service's SLA slaMult times the app's SLA floor
// there (appSLAFloor), which it also returns.
func settingContext(app *apps.App, rate, slaMult float64, bg workload.Interference) (planContext, float64) {
	models := profiling.AnalyticModels(app.Profiles, app.Containers, cluster.DefaultInterference)
	slaMs := appSLAFloor(app, models, bg.CPU, bg.Mem) * slaMult
	return newContext(app, models, uniformRates(app, rate), slaMs, bg.CPU, bg.Mem), slaMs
}

// staticPatterns turns per-service rates into open-loop fixed-rate arrivals.
func staticPatterns(rates map[string]float64) map[string]workload.Pattern {
	out := make(map[string]workload.Pattern, len(rates))
	for svc, r := range rates {
		out[svc] = workload.Static{Rate: r}
	}
	return out
}

// uniformRates gives every service of the app the same request rate.
func uniformRates(app *apps.App, rate float64) map[string]float64 {
	out := make(map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		out[g.Service] = rate
	}
	return out
}
