package main

import "fmt"

// metricDef names one metric of BENCHMARK.json. The file and these tables
// must agree; the smoke test compares them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics of an untraced run. Definitions are in README.md.
var endToEnd = []metricDef{
	{"window_ms_mean", "ms", "lower", 0.25},
	{"window_ms_p50", "ms", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"allocs_per_window", "count", "lower", 0.07},
	{"alloc_mb_per_window", "MB", "lower", 0.07},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"containers_mean", "count", "lower", 0.01},
	{"sla_attainment", "fraction", "higher", 0.05},
	{"p95_over_sla_mean", "ratio", "lower", 0.05},
	{"healthy_window_share", "fraction", "higher", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of a traced run. Times and counts are means per
// timed window unless the README marks them "once".
var perLayer = []metricDef{
	{Name: "obs.traced_window_ms", Unit: "ms", Better: "lower"},
	{Name: "kube.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.rebalance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "chaos.window_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.window_self_ms", Unit: "ms", Better: "lower"},

	{Name: "kube.repaired", Unit: "count", Better: "lower"},
	{Name: "kube.scale_ups", Unit: "count", Better: "lower"},
	{Name: "kube.scale_downs", Unit: "count", Better: "lower"},
	{Name: "kube.replicas_delta", Unit: "count", Better: "lower"},
	{Name: "provision.moves", Unit: "count", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "drift.model_swaps", Unit: "count", Better: "lower"},
	{Name: "chaos.faults", Unit: "count", Better: "lower"},

	{Name: "multiplex.dirty_services", Unit: "count", Better: "lower"},
	{Name: "multiplex.skipped_services", Unit: "count", Better: "higher"},
	{Name: "multiplex.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "multiplex.shard_runs", Unit: "count", Better: "lower"},
	{Name: "scaling.template_hits", Unit: "count", Better: "higher"},
	{Name: "scaling.template_compiles", Unit: "count", Better: "lower"},
	{Name: "scaling.template_invalidations", Unit: "count", Better: "lower"},
	{Name: "multiplex.monolithic_plan_ms", Unit: "ms", Better: "lower"},

	{Name: "core.plan_allocs", Unit: "count", Better: "lower"},
	{Name: "core.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "core.evaluate_allocs", Unit: "count", Better: "lower"},

	{Name: "sim.requests", Unit: "count", Better: "higher"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.jobs_allocated", Unit: "count", Better: "lower"},
	{Name: "sim.heap_peak", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "sim.data_attempts", Unit: "count", Better: "lower"},
	{Name: "sim.data_retries", Unit: "count", Better: "lower"},
	{Name: "sim.data_timeouts", Unit: "count", Better: "lower"},
	{Name: "sim.data_shed", Unit: "count", Better: "lower"},
	{Name: "sim.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "sim.retry_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sim.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.setup_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.partitioned_exact_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.hybrid_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.hybrid_fluid_share", Unit: "ratio", Better: "higher"},
	{Name: "sim.hybrid_p95_dev_max", Unit: "ratio", Better: "lower"},

	{Name: "apps.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "profiling.analytic_models_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cold_window_ms", Unit: "ms", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitter collects the metrics of one run against a definition table, so a
// name that is unknown, or set twice, is caught where it is set.
type emitter struct {
	defs    []metricDef
	metrics map[string]metric
	errs    []string
}

func newEmitter(defs []metricDef) *emitter {
	return &emitter{defs: defs, metrics: make(map[string]metric, len(defs))}
}

func (e *emitter) set(name string, v float64) {
	if _, dup := e.metrics[name]; dup {
		e.errs = append(e.errs, fmt.Sprintf("metric %s emitted twice", name))
		return
	}
	for _, d := range e.defs {
		if d.Name == name {
			e.metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	e.errs = append(e.errs, fmt.Sprintf("metric %s is not defined", name))
}

// missing lists the defined metrics that were never set.
func (e *emitter) missing() []string {
	var out []string
	for _, d := range e.defs {
		if _, ok := e.metrics[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
