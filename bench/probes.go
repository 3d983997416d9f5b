package main

import (
	"fmt"
	"math"
	"reflect"

	"erms/internal/core"
	"erms/internal/multiplex"
	"erms/internal/provision"
	"erms/internal/scaling"
	"erms/internal/sim"
	"erms/internal/workload"
)

const spanProbe = "bench.probe"

// The probe's metrics of the simulator, and of its two other engines.
var (
	simProbeMetrics = []string{
		"core.evaluate_allocs", "sim.requests", "sim.allocs_per_request",
		"sim.setup_ms", "sim.run_ms", "sim.setup_share",
	}
	engineProbeMetrics = []string{
		"sim.partitioned_exact_ms", "sim.hybrid_ms", "sim.hybrid_fluid_share", "sim.hybrid_p95_dev_max",
	}
)

// probe runs one more control window by hand on the final state of a traced
// run, after everything end-to-end has been read. Calling each phase itself
// lets the harness measure what Reconciler.Step does not hand out: the
// allocations of each phase, the from-scratch planner on the same inputs (the
// oracle of the bit-identity check), the simulator's set-up/run split and,
// on scale100-window, the partitioned and hybrid engines. It returns what
// Rebalance moved and the correctness checks that failed.
func probe(l *loop, s spec, w int, tr *tracer, em *emitter) (moves float64, problems []string, err error) {
	root := tr.start(spanProbe, w)
	defer root.end()
	ctrl, orch := l.ctrl, l.ctrl.Orch
	rates := l.rates(w)

	_, _ = orch.Repair() // best-effort, as in Reconciler.Step

	// The oracle must see the cluster the incremental planner saw, so its
	// inputs are taken before Apply changes utilization.
	inputs := planInputs(ctrl)
	var plan *multiplex.Plan
	allocs, _ := memDelta(func() { plan, err = ctrl.Plan(rates) })
	if err != nil {
		return 0, nil, fmt.Errorf("plan: %w", err)
	}
	em.set("core.plan_allocs", float64(allocs))

	cache := scaling.NewTemplateCache()
	scratch, err := multiplex.PlanSchemeCached(ctrl.Scheme, inputs, ctrl.Loads(rates), ctrl.App.Shared(), cache)
	if err != nil {
		return 0, nil, fmt.Errorf("from-scratch plan: %w", err)
	}
	if diff := planDiff(plan, scratch); diff != "" {
		problems = append(problems, "incremental plan differs from the from-scratch plan: "+diff)
	}
	sp := tr.start("multiplex.monolithic_plan", w)
	_, err = multiplex.PlanSchemeCached(ctrl.Scheme, inputs, ctrl.Loads(rates), ctrl.App.Shared(), cache)
	em.set("multiplex.monolithic_plan_ms", sp.end())
	if err != nil {
		return 0, nil, fmt.Errorf("monolithic plan: %w", err)
	}

	allocs, _ = memDelta(func() { err = ctrl.Apply(plan) })
	if err != nil {
		return 0, nil, fmt.Errorf("apply: %w", err)
	}
	em.set("core.apply_allocs", float64(allocs))

	if s.Moves > 0 {
		moves = float64(provision.Rebalance(orch.Cluster(), s.Moves))
	}

	// Every run reports every metric; the ones a workload has no layer for
	// read zero.
	if !s.Engines {
		for _, name := range engineProbeMetrics {
			em.set(name, 0)
		}
	}
	if !s.Simulates {
		for _, name := range simProbeMetrics {
			em.set(name, 0)
		}
		return moves, problems, nil
	}

	windowMin, warmupMin, seed := l.rec.WindowMin, l.rec.WarmupMin, l.simSeed(w)
	opts := core.EvalOpts{Streams: l.streamsAt(w)}
	// A simulation leaves the CPU usage it measured on the containers, where
	// it feeds the next one's interference; the split run below starts from
	// the usage this one started from.
	containers := orch.Cluster().Containers()
	usage := make([]float64, len(containers))
	for i, c := range containers {
		usage[i] = c.CPUUsage()
	}
	var exact *core.EvalResult
	allocs, _ = memDelta(func() { exact, err = ctrl.EvaluateDeployed(plan, rates, windowMin, warmupMin, seed, opts) })
	if err != nil {
		return 0, nil, fmt.Errorf("evaluate: %w", err)
	}
	requests := 0
	for _, sr := range exact.Sim.PerService {
		requests += sr.Count + sr.Errors
	}
	if requests == 0 {
		problems = append(problems, "the probe window simulated no requests")
	}
	em.set("core.evaluate_allocs", float64(allocs))
	em.set("sim.requests", float64(requests))
	em.set("sim.allocs_per_request", ratio(float64(allocs), float64(requests)))

	// The same simulation with construction and event run timed apart.
	for i, c := range containers {
		c.SetCPUUsage(usage[i])
	}
	cfg := simConfig(ctrl, plan, rates, windowMin, warmupMin, seed, opts)
	sp = tr.start("sim.setup", w)
	rt, err := sim.NewRuntime(cfg)
	setupMs := sp.end()
	if err != nil {
		return 0, nil, fmt.Errorf("sim set-up: %w", err)
	}
	sp = tr.start("sim.run", w)
	again := rt.Run()
	runMs := sp.end()
	// simConfig copies what EvaluateDeployed assembles; if the copy drifts,
	// the split times a different simulation and this says so.
	if diff := simDiff(again, exact.Sim); diff != "" {
		problems = append(problems, "the set-up/run probe simulated something else than EvaluateDeployed: "+diff)
	}
	em.set("sim.setup_ms", setupMs)
	em.set("sim.run_ms", runMs)
	em.set("sim.setup_share", setupMs/(setupMs+runMs))

	if !s.Engines {
		return moves, problems, nil
	}
	sp = tr.start("sim.partitioned_exact", w)
	opts.SimPartitions = -1 // non-zero routes through RunPartitioned; below zero is one task per sharing group
	_, err = ctrl.EvaluateDeployed(plan, rates, windowMin, warmupMin, seed, opts)
	em.set("sim.partitioned_exact_ms", sp.end())
	if err != nil {
		return 0, nil, fmt.Errorf("partitioned evaluate: %w", err)
	}

	sp = tr.start("sim.hybrid", w)
	opts.SimMode = sim.SimHybrid
	hybrid, err := ctrl.EvaluateDeployed(plan, rates, windowMin, warmupMin, seed, opts)
	em.set("sim.hybrid_ms", sp.end())
	if err != nil {
		return 0, nil, fmt.Errorf("hybrid evaluate: %w", err)
	}
	fluid, exactMin := float64(hybrid.Sim.FluidContainerMinutes), float64(hybrid.Sim.ExactContainerMinutes)
	em.set("sim.hybrid_fluid_share", ratio(fluid, fluid+exactMin))
	dev := 0.0
	for svc, want := range exact.TailLatency {
		if want > 0 {
			dev = math.Max(dev, math.Abs(hybrid.TailLatency[svc]-want)/want)
		}
	}
	em.set("sim.hybrid_p95_dev_max", dev)
	return moves, problems, nil
}

// planInputs assembles the planner inputs for the cluster's current state,
// as Controller.Plan does.
func planInputs(c *core.Controller) map[string]scaling.Input {
	cl := c.Orch.Cluster()
	cpu, mem := cl.MeanCPUUtil(), cl.MeanMemUtil()
	shares := make(map[string]float64, len(c.App.Containers))
	for ms, spec := range c.App.Containers {
		shares[ms] = cl.DominantShare(spec)
	}
	inputs := make(map[string]scaling.Input, len(c.App.Graphs))
	for _, g := range c.App.Graphs {
		inputs[g.Service] = scaling.Input{
			Graph: g, SLA: c.App.SLAs[g.Service], Models: c.Models,
			Shares: shares, CPUUtil: cpu, MemUtil: mem,
		}
	}
	return inputs
}

// planDiff names the first field in which two plans are not bit-identical.
func planDiff(got, want *multiplex.Plan) string {
	switch {
	case !reflect.DeepEqual(got.Containers, want.Containers):
		return "merged container counts"
	case !reflect.DeepEqual(got.Ranks, want.Ranks):
		return "priority ranks"
	case len(got.PerService) != len(want.PerService):
		return "service set"
	}
	for svc, w := range want.PerService {
		g := got.PerService[svc]
		switch {
		case g == nil:
			return "service set"
		case !reflect.DeepEqual(g.Targets, w.Targets):
			return "latency targets of " + svc
		case !reflect.DeepEqual(g.ContainersRaw, w.ContainersRaw):
			return "raw container counts of " + svc
		case !reflect.DeepEqual(g.Containers, w.Containers):
			return "container counts of " + svc
		}
	}
	return ""
}

// simDiff names the first statistic in which two runs of one simulation
// differ: events executed, then each service's completed, slow and failed
// requests and its P95.
func simDiff(got, want *sim.Result) string {
	if got.Engine.Events != want.Engine.Events {
		return fmt.Sprintf("%d events, want %d", got.Engine.Events, want.Engine.Events)
	}
	if len(got.PerService) != len(want.PerService) {
		return "service set"
	}
	for svc, w := range want.PerService {
		g := got.PerService[svc]
		if g == nil {
			return "service set"
		}
		if g.Count != w.Count || g.Violations != w.Violations || g.Errors != w.Errors {
			return fmt.Sprintf("%s: %d/%d/%d completed/slow/failed, want %d/%d/%d",
				svc, g.Count, g.Violations, g.Errors, w.Count, w.Violations, w.Errors)
		}
		// Bit comparison: a service that completed nothing has a NaN P95 in both.
		if math.Float64bits(g.P95()) != math.Float64bits(w.P95()) {
			return fmt.Sprintf("%s: P95 %v, want %v", svc, g.P95(), w.P95())
		}
	}
	return ""
}

// simConfig assembles the simulation Controller.EvaluateDeployed runs.
func simConfig(c *core.Controller, plan *multiplex.Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64, opts core.EvalOpts) sim.Config {
	streamed := make(map[string]bool, len(opts.Streams))
	for _, st := range opts.Streams {
		streamed[st.Service] = true
	}
	patterns := make(map[string]workload.Pattern, len(rates))
	for svc, r := range rates {
		if !streamed[svc] {
			patterns[svc] = workload.Static{Rate: r}
		}
	}
	return sim.Config{
		Seed:           seed,
		Cluster:        c.Orch.Cluster(),
		Interference:   c.Interference,
		Profiles:       c.App.Profiles,
		Graphs:         c.App.Graphs,
		Patterns:       patterns,
		SLAs:           c.App.SLAs,
		Priorities:     c.Priorities(plan),
		Delta:          c.Delta,
		DurationMin:    durationMin,
		WarmupMin:      warmupMin,
		NetworkDelayMs: 0.05,
		Observer:       c.Coordinator,
		Resilience:     c.Resilience,
		Streams:        opts.Streams,
	}
}
