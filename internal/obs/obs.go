// Package obs is the self-observability layer of the Erms control plane: it
// watches the controller itself — the reconciler's per-window phase
// latencies, its retry and degraded-mode counters, the orchestrator's action
// stream, the chaos events it survived, and the discrete-event engine's
// throughput.
//
// The design constraint is that observability must never perturb the thing
// it observes:
//
//   - Disabled is free. Every entry point is a method on *Recorder that
//     no-ops on a nil receiver, so instrumented call sites cost a nil check
//     and zero heap allocations when no recorder is configured (enforced by
//     TestDisabledRecorderZeroAlloc via testing.AllocsPerRun).
//   - Enabled is passive. The recorder only accumulates numbers derived
//     from decisions already taken; nothing the control loop computes reads
//     them back, so plans, reports, and experiment tables stay byte-identical
//     at any worker count with or without a recorder (wall-clock phase
//     timings are recorded but never fed back into planning).
//
// The recorder is the one self-telemetry surface: the HTTP endpoint in
// http.go serves its live counters and gauges in Prometheus text format at
// /metrics and its retained phase spans at /spans.
package obs

import (
	"sync"
	"time"
)

// Reconciler phase span names (the phases of core.Reconciler.Step, §Fig. 6).
const (
	PhaseRepair    = "repair"
	PhasePlan      = "plan"
	PhaseApply     = "apply"
	PhaseRebalance = "rebalance"
	PhaseEvaluate  = "evaluate"
)

// Counter names, all under the erms.self.* namespace. Everything is a
// monotone counter unless noted; gauges are Set rather than Add.
const (
	// Control loop.
	CtrWindows         = "erms.self.windows_total"
	CtrRetries         = "erms.self.retries_total"
	CtrBackoffMin      = "erms.self.backoff_simulated_minutes_total"
	CtrDegradedWindows = "erms.self.degraded_windows_total"
	CtrOutageWindows   = "erms.self.outage_windows_total"
	CtrObsGapWindows   = "erms.self.obsgap_windows_total"
	CtrScaleUps        = "erms.self.plan_scale_ups_total"
	CtrScaleDowns      = "erms.self.plan_scale_downs_total"
	CtrRepaired        = "erms.self.repaired_containers_total"
	GaugeContainers    = "erms.self.plan_containers" // gauge: containers in the applied plan

	// Controller.
	CtrPlans          = "erms.self.plans_total"
	CtrApplies        = "erms.self.applies_total"
	CtrApplyRollbacks = "erms.self.apply_rollbacks_total"

	// Compiled plan templates (cumulative cache effectiveness; the cache
	// reports running totals, so these are Set rather than Add).
	CtrPlanTemplateHits          = "erms.self.plan_template_hits_total"
	CtrPlanTemplateCompiles      = "erms.self.plan_template_compiles_total"
	CtrPlanTemplateInvalidations = "erms.self.plan_template_invalidations_total"

	// Incremental sharded planning (cumulative planner effectiveness; the
	// planner reports running totals, so these are Set rather than Add).
	CtrPlanSkipped = "erms.self.plan_skipped_total"
	CtrPlanDirty   = "erms.self.plan_dirty_total"
	CtrPlanShards  = "erms.self.plan_shards_total"

	// Online drift loop (cumulative detector totals; the detector reports
	// running counters, so these are Set rather than Add).
	CtrDriftWindows    = "erms.self.drift_windows_total"
	CtrDriftDetections = "erms.self.drift_detected_total"
	CtrModelSwaps      = "erms.self.model_swaps_total"
	GaugeDriftScore    = "erms.self.drift_score_max" // gauge: worst drift score seen

	// Operator rollouts (counted by internal/operator as spec generations
	// move through the canary → promote → soak state machine).
	CtrRolloutStarted    = "erms.self.rollout_started_total"
	CtrRolloutPromoted   = "erms.self.rollout_promoted_total"
	CtrRolloutRolledBack = "erms.self.rollout_rolled_back_total"
	CtrRolloutSuperseded = "erms.self.rollout_superseded_total"
	GaugeGeneration      = "erms.self.spec_generation" // gauge: committed spec generation

	// Simulation engine (accumulated across evaluation windows).
	CtrSimEvents       = "erms.self.sim_events_total"
	CtrSimJobsAlloc    = "erms.self.sim_jobs_allocated_total"
	CtrSimJobsRecycled = "erms.self.sim_jobs_recycled_total"
	GaugeSimHeapPeak   = "erms.self.sim_event_heap_peak" // gauge: high-water pending-event depth (heap + lane + timeout wheel)

	// Partitioned / hybrid simulation (accumulated across evaluation
	// windows): sharing-group partitions run, and container-minutes served
	// from the analytic fluid model vs the discrete event engine.
	CtrSimPartitions      = "erms.self.sim_partitions_total"
	CtrSimFluidContainers = "erms.self.sim_fluid_containers_total"
	CtrSimExactContainers = "erms.self.sim_exact_containers_total"

	// Data-plane resilience (accumulated across evaluation windows; all zero
	// unless the simulator runs with a sim.Resilience config).
	CtrDataAttempts             = "erms.data.attempts_total"
	CtrDataTimeouts             = "erms.data.timeouts_total"
	CtrDataRetries              = "erms.data.retries_total"
	CtrDataRetryBudgetExhausted = "erms.data.retry_budget_exhausted_total"
	CtrDataBreakerOpens         = "erms.data.breaker_opens_total"
	CtrDataBreakerShortCircuits = "erms.data.breaker_short_circuits_total"
	CtrDataShed                 = "erms.data.shed_total"
	CtrDataCrashFailures        = "erms.data.crash_failures_total"
	CtrDataDeadlineSkips        = "erms.data.deadline_skips_total"
	CtrDataUnavailable          = "erms.data.unavailable_total"
	CtrDataErrors               = "erms.data.request_errors_total"

	// Per-SLO-tier data-plane outcomes (populated by cohort-stream
	// evaluations, e.g. spec-driven runs). See TierDataCounter.

	// Chaos events observed by the injector.
	CtrChaosHostsFailed    = "erms.self.chaos_hosts_failed_total"
	CtrChaosHostsRecovered = "erms.self.chaos_hosts_recovered_total"
	CtrChaosSpikes         = "erms.self.chaos_interference_spikes_total"
	CtrChaosCrashes        = "erms.self.chaos_container_crashes_total"
	CtrChaosOpFaults       = "erms.self.chaos_op_faults_total"
	CtrChaosObsGaps        = "erms.self.chaos_obs_gaps_total"
)

// TierDataCounter maps an SLO tier name (workload.Tier.String(): "critical",
// "standard", "sheddable", "batch") and an outcome class ("success", "slow",
// "error", "shed") to its erms.data.* counter name. Precomputed so the
// per-window surfacing path performs no string concatenation; unknown pairs
// fold into a catch-all counter rather than minting unbounded names.
func TierDataCounter(tier, outcome string) string {
	if name, ok := tierDataCounters[tier+"/"+outcome]; ok {
		return name
	}
	return "erms.data.tier_unknown_total"
}

var tierDataCounters = func() map[string]string {
	m := make(map[string]string, 16)
	for _, tier := range []string{"critical", "standard", "sheddable", "batch"} {
		for _, outcome := range []string{"success", "slow", "error", "shed"} {
			m[tier+"/"+outcome] = "erms.data.tier_" + tier + "_" + outcome + "_total"
		}
	}
	return m
}()

// KubeEventCounter maps a kube event-type string (kube.EventType.String())
// to its erms.self.* counter name. Precomputed so the orchestrator's emit
// path performs no string concatenation.
func KubeEventCounter(eventType string) string {
	if name, ok := kubeEventCounters[eventType]; ok {
		return name
	}
	return "erms.self.kube_events_unknown_total"
}

var kubeEventCounters = map[string]string{
	"create":       "erms.self.kube_creates_total",
	"scale-up":     "erms.self.kube_scale_ups_total",
	"scale-down":   "erms.self.kube_scale_downs_total",
	"delete":       "erms.self.kube_deletes_total",
	"node-fail":    "erms.self.kube_node_fails_total",
	"node-recover": "erms.self.kube_node_recovers_total",
	"repair":       "erms.self.kube_repairs_total",
}

// SpanRecord is one completed internal span: a named phase of the control
// loop, timed in wall-clock milliseconds (the controller's own decision
// latency — simulated time is the applications' clock, not ours).
type SpanRecord struct {
	Name string `json:"name"`
	// Window is the reconciliation window the phase ran in (-1 when the
	// span is not window-scoped).
	Window int `json:"window"`
	// StartMs is the span start as milliseconds since the recorder was
	// created.
	StartMs float64 `json:"start_ms"`
	// DurMs is the wall-clock duration in milliseconds.
	DurMs float64 `json:"dur_ms"`
}

// Recorder accumulates the control plane's self-telemetry. The zero value
// is not usable; call New. All methods are safe for concurrent use and
// no-ops on a nil receiver, so call sites need no enabled/disabled branch:
//
//	var rec *obs.Recorder // nil: disabled, zero cost
//	sp := rec.StartSpan(obs.PhasePlan, w)
//	...
//	sp.End()
//	rec.Add(obs.CtrRetries, 1)
type Recorder struct {
	// now is the clock; replaceable by tests for deterministic spans.
	now func() time.Time

	epoch time.Time

	mu       sync.Mutex
	counters map[string]float64
	spans    []SpanRecord
	spanHead int // ring start when the buffer is full
	spanCap  int
	dropped  int
}

// New creates a recorder. The parameter is ignored: it was the metrics store
// a recorder once mirrored into, and it stays only so that the benchmark
// module's obs.New(nil) keeps compiling until ROADMAP item 8(g) moves that
// call to obs.New() and drops the parameter.
func New(_ any) *Recorder {
	r := &Recorder{
		now:      time.Now,
		counters: make(map[string]float64),
		spanCap:  4096,
	}
	r.epoch = r.now()
	return r
}

// Add increments a counter by delta. No-op on a nil recorder.
func (r *Recorder) Add(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Inc increments a counter by one. No-op on a nil recorder.
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Set overwrites a gauge. No-op on a nil recorder.
func (r *Recorder) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = v
	r.mu.Unlock()
}

// SetMax raises a gauge to v if v exceeds its current value.
func (r *Recorder) SetMax(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if v > r.counters[name] {
		r.counters[name] = v
	}
	r.mu.Unlock()
}

// Value returns a counter's current value (0 when absent or disabled).
func (r *Recorder) Value(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a name-sorted snapshot of every counter and gauge.
func (r *Recorder) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Span is an in-flight phase timing handle. The zero value (returned by a
// nil recorder) is inert: End is a no-op returning 0. Span is a small value
// type so the disabled path allocates nothing.
type Span struct {
	r     *Recorder
	name  string
	w     int
	start time.Time
}

// StartSpan begins timing a named phase of the given window (-1 for spans
// outside the window loop). On a nil recorder it returns an inert Span and
// does not read the clock.
func (r *Recorder) StartSpan(name string, window int) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, w: window, start: r.now()}
}

// End completes the span, records it, and returns its wall-clock duration
// in milliseconds (0 for the inert span).
func (s Span) End() float64 {
	if s.r == nil {
		return 0
	}
	end := s.r.now()
	dur := float64(end.Sub(s.start)) / float64(time.Millisecond)
	rec := SpanRecord{
		Name:    s.name,
		Window:  s.w,
		StartMs: float64(s.start.Sub(s.r.epoch)) / float64(time.Millisecond),
		DurMs:   dur,
	}
	s.r.mu.Lock()
	if len(s.r.spans) < s.r.spanCap {
		s.r.spans = append(s.r.spans, rec)
	} else {
		// Ring: overwrite the oldest retained span.
		s.r.spans[s.r.spanHead] = rec
		s.r.spanHead = (s.r.spanHead + 1) % s.r.spanCap
		s.r.dropped++
	}
	s.r.mu.Unlock()
	return dur
}

// Spans returns the retained spans in completion order (oldest first).
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.spans))
	out = append(out, r.spans[r.spanHead:]...)
	out = append(out, r.spans[:r.spanHead]...)
	return out
}

// DroppedSpans reports how many spans the bounded buffer has overwritten.
func (r *Recorder) DroppedSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
