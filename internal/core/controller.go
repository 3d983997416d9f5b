// Package core assembles the Erms system of Fig. 6: the Tracing Coordinator
// and the simulator's per-minute samples feed the Offline Profiler, with the
// OS-level utilization read off the cluster itself; the Online Scaling pipeline
// (graph merge → latency target computation → priority scheduling) plans
// container counts per microservice; and the Resource Provisioning module
// places them on the cluster through the mini-Kubernetes orchestrator.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/drift"
	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/trace"
	"erms/internal/workload"
)

// Option configures a Controller.
type Option func(*Controller)

// WithScheme selects the shared-microservice scheme (default priority).
func WithScheme(s multiplex.Scheme) Option {
	return func(c *Controller) { c.Scheme = s }
}

// WithScheduler overrides the placement scheduler (default: the caller's
// orchestrator scheduler is kept).
func WithScheduler(s kube.Scheduler) Option {
	return func(c *Controller) { c.scheduler = s }
}

// WithObservability attaches a self-observability recorder to the
// controller and its orchestrator.
func WithObservability(r *obs.Recorder) Option {
	return func(c *Controller) { c.Obs = r }
}

// WithResilience sets the data plane's per-call mechanisms in every
// evaluation simulation: deadline propagation, budgeted retries, circuit
// breaking and admission control. Nil (the default) is the zero
// sim.Resilience: one attempt per call, no deadline. Crashes and outages
// fail calls under either.
func WithResilience(r *sim.Resilience) Option {
	return func(c *Controller) { c.Resilience = r }
}

// WithDriftDetection enables the online profiling drift loop: every
// reconciliation window the live per-microservice latency samples are
// scored against the current models, and a microservice whose observations
// stay past the configured threshold for the configured number of
// consecutive windows gets its model re-fitted from those live samples and
// swapped in (see package drift). Off by default — without this option the
// controller plans against frozen models exactly as before, byte for byte.
//
// Live samples are per-minute aggregates recorded after warmup, so the
// reconciler's window must span at least two whole minutes (WindowMin >= 2
// with WarmupMin < 1) for the detector to see any signal; shorter windows
// are all no-signal and the detector never fires.
func WithDriftDetection(cfg drift.Config) Option {
	return func(c *Controller) { c.Drift = drift.NewDetector(cfg) }
}

// Controller is the Erms resource manager for one application on one
// cluster.
type Controller struct {
	App  *apps.App
	Orch *kube.Orchestrator

	// Coordinator is the Tracing Coordinator of Fig. 6. Its SampleRate is the
	// rate ProfileOffline's trace-fed sweep samples at. No evaluation fills
	// it: nothing in the window loop reads spans, and attaching an observer
	// does not change an exact-engine run (sampling is a hash of the trace
	// ID), so it is attached only by whoever reads what it holds. Trace IDs
	// restart with every simulation, so one coordinator holds one run.
	Coordinator *trace.Coordinator
	// Obs is the control plane's self-observability recorder. Nil (the
	// default) disables self-telemetry at zero cost; when set, the
	// controller and the reconciler wrapping it count plans, applies,
	// rollbacks, and simulation-engine activity under erms.self.*, and each
	// Reconciler.Step times its phases as wall-clock spans into
	// WindowReport.PhaseMs.
	Obs *obs.Recorder

	// Models holds the per-microservice latency model used for scaling.
	Models map[string]profiling.Model
	// Drift, when non-nil (WithDriftDetection), is the streaming detector
	// that compares each evaluation window's observed latency against Models
	// and re-fits/swaps a model that has drifted past threshold for enough
	// consecutive windows. The swap is an ordinary map write of a fresh
	// immutable model — the template cache's parameter-hash contract turns
	// it into a precise single-service invalidation.
	Drift *drift.Detector

	// Scheme is the shared-microservice handling (priority by default;
	// SchemeFCFS yields the Latency-Target-Computation-only ablation of
	// §6.4.1).
	Scheme multiplex.Scheme
	// Delta is the δ of the probabilistic priority policy.
	Delta float64
	// Interference is the host-utilization → service-time inflation model.
	Interference cluster.InterferenceModel
	// Resilience configures the data plane's per-call mechanisms in every
	// evaluation simulation (see sim.Resilience); nil is the zero value.
	Resilience *sim.Resilience

	// PlanCache memoizes compiled plan templates per service: steady-state
	// windows replay the precompiled Algorithm-1 reduction instead of
	// re-validating and re-merging every graph, with automatic invalidation
	// when graphs, models, shares, or the SLA change.
	PlanCache *scaling.TemplateCache
	// Planner is the change-driven incremental planner over PlanCache, the
	// one production planning path: windows replan only the sharing groups
	// whose inputs changed, fanned out over one shard per pool worker. Its
	// plans are bit-identical to a fresh planner's on the same inputs, and
	// immutable (see multiplex.Plan).
	Planner *multiplex.IncrementalPlanner

	scheduler kube.Scheduler
	// sharesCache memoizes the per-microservice dominant shares, which only
	// depend on container specs and total cluster capacity; it refreshes
	// whenever capacity changes (e.g. chaos host loss).
	sharesCores float64
	sharesMemMB float64
	shares      map[string]float64
	// loads memoizes, per App.Graphs entry, the last per-microservice call
	// rates Loads built and the rate they were built for, and shared the
	// App.Shared() of those graphs; both are recomputed when a graph pointer
	// changes (graphs are replaced, never edited, once the planner has them).
	loads  []svcLoads
	shared []string
	// applyOrder is the sorted microservice order of the last plan applied,
	// kept while plans keep the same key set, and applySnap the rollback
	// snapshot aligned with it, reused across windows.
	applyOrder []string
	applySnap  []priorDeployment
}

// priorDeployment is one microservice's deployment before an Apply.
type priorDeployment struct {
	existed  bool
	replicas int
}

// svcLoads is one service's cached Loads entry. byMS is handed out and never
// written again: a new rate builds a new map.
type svcLoads struct {
	graph *graph.Graph
	rate  float64
	byMS  map[string]float64
}

// New creates a controller. The orchestrator's cluster must be the one the
// application will run on.
func New(app *apps.App, orch *kube.Orchestrator, opts ...Option) (*Controller, error) {
	if app == nil || orch == nil {
		return nil, errors.New("core: nil app or orchestrator")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		App:          app,
		Orch:         orch,
		Coordinator:  trace.NewCoordinator(0.1),
		Models:       make(map[string]profiling.Model),
		Scheme:       multiplex.SchemePriority,
		Delta:        0.05,
		Interference: cluster.DefaultInterference,
		PlanCache:    scaling.NewTemplateCache(),
	}
	for _, o := range opts {
		o(c)
	}
	c.Planner = multiplex.NewIncrementalPlanner(c.PlanCache)
	if c.scheduler != nil {
		orch.SetScheduler(c.scheduler)
	}
	if c.Obs != nil {
		orch.SetRecorder(c.Obs)
	}
	return c, nil
}

// UseAnalyticModels fills Models with first-principles models derived from
// the application's service profiles — the fast path for large-scale
// experiments (§6.5). Empirical profiling via ProfileOffline replaces them
// with fitted models.
func (c *Controller) UseAnalyticModels() {
	threads := make(map[string]int, len(c.App.Containers))
	for ms, spec := range c.App.Containers {
		threads[ms] = spec.Threads
	}
	c.Models = profiling.AnalyticModels(c.App.Profiles, threads, c.Interference)
}

// ObserveDrift feeds one evaluation window's simulation result to the drift
// detector and installs whatever model swaps it decided on. It returns the
// swaps (nil when drift detection is disabled, the result carries no
// samples, or nothing drifted). The per-minute samples of res are exactly
// the (L, γ, C, M) tuples offline profiling consumes, so the detector
// compares like with like; minutes dropped by observability gaps are simply
// absent and count as no-signal windows.
func (c *Controller) ObserveDrift(res *sim.Result) []drift.Swap {
	if c.Drift == nil || res == nil {
		return nil
	}
	swaps := c.Drift.ObserveWindow(c.Models, profiling.FromMinuteSamples(res.Samples))
	for _, sw := range swaps {
		c.Models[sw.Microservice] = sw.Model
	}
	if c.Obs != nil {
		st := c.Drift.Stats()
		c.Obs.Set(obs.CtrDriftWindows, float64(st.Windows))
		c.Obs.Set(obs.CtrDriftDetections, float64(st.Detections))
		c.Obs.Set(obs.CtrModelSwaps, float64(st.Swaps))
		c.Obs.SetMax(obs.GaugeDriftScore, st.MaxScore)
	}
	return swaps
}

// Loads returns loads[svc][ms]: the calls/minute service svc imposes on
// microservice ms at the given request rates, accounting for microservices
// that occupy multiple graph positions. The inner maps are read-only: a
// service whose rate did not change since the last call gets the same map
// again.
func (c *Controller) Loads(rates map[string]float64) map[string]map[string]float64 {
	c.syncTopology()
	out := make(map[string]map[string]float64, len(c.App.Graphs))
	for i, g := range c.App.Graphs {
		sl := &c.loads[i]
		if rate := rates[g.Service]; sl.byMS == nil || rate != sl.rate {
			sl.rate, sl.byMS = rate, c.serviceLoads(g, rate)
		}
		out[g.Service] = sl.byMS
	}
	return out
}

// serviceLoads expands one service's request rate into per-microservice call
// rates. The multiplicities come compiled from the service's plan template
// while that still describes the graph, and from the graph itself before the
// first plan.
func (c *Controller) serviceLoads(g *graph.Graph, rate float64) map[string]float64 {
	var mss []string
	var counts []int
	if t := c.PlanCache.Template(g.Service); t != nil && t.StructMatches(g) {
		mss, counts = t.CallCounts()
	} else {
		mss, counts = g.CallCounts()
	}
	byMS := make(map[string]float64, len(mss))
	for i, ms := range mss {
		byMS[ms] = rate * float64(counts[i])
	}
	return byMS
}

// syncTopology drops what Loads and Plan cache about the app's graphs when
// the graph list is not the one they were derived from.
func (c *Controller) syncTopology() {
	same := c.loads != nil && len(c.loads) == len(c.App.Graphs)
	for i := 0; same && i < len(c.loads); i++ {
		same = c.loads[i].graph == c.App.Graphs[i]
	}
	if same {
		return
	}
	c.loads = make([]svcLoads, len(c.App.Graphs))
	for i, g := range c.App.Graphs {
		c.loads[i].graph = g
	}
	c.shared = c.App.Shared()
}

// Plan runs Online Scaling for the given per-service request rates
// (requests/minute): initial latency targets, priority assignment at shared
// microservices, recomputation with modified workloads, and the merged
// container counts (§5.3).
func (c *Controller) Plan(rates map[string]float64) (*multiplex.Plan, error) {
	if len(c.Models) == 0 {
		return nil, errors.New("core: no latency models; call UseAnalyticModels or ProfileOffline first")
	}
	for _, g := range c.App.Graphs {
		// !(r > 0) also catches NaN, which every ordered comparison lets by.
		if r := rates[g.Service]; !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("core: rate for service %s must be positive and finite, got %v", g.Service, r)
		}
	}
	loads := c.Loads(rates) // also brings c.shared up to date
	plan, err := c.Planner.PlanScheme(c.Scheme, c.planInputs(), loads, c.shared)
	if err != nil {
		return nil, err
	}
	c.Obs.Inc(obs.CtrPlans)
	if c.Obs != nil {
		ct := c.PlanCache.Stats()
		c.Obs.Set(obs.CtrPlanTemplateHits, float64(ct.Hits))
		c.Obs.Set(obs.CtrPlanTemplateCompiles, float64(ct.Compiles))
		c.Obs.Set(obs.CtrPlanTemplateInvalidations, float64(ct.Invalidations))
		pt := c.Planner.Stats()
		c.Obs.Set(obs.CtrPlanSkipped, float64(pt.SkippedServices))
		c.Obs.Set(obs.CtrPlanDirty, float64(pt.DirtyServices))
		c.Obs.Set(obs.CtrPlanShards, float64(pt.ShardRuns))
	}
	return plan, nil
}

// planInputs assembles every service's scaling input from the cluster's
// current state (Workloads are filled in per scheme by the planner).
func (c *Controller) planInputs() map[string]scaling.Input {
	cl := c.Orch.Cluster()
	cpu, mem := cl.MeanCPUUtil(), cl.MeanMemUtil()
	shares := c.dominantShares(cl)
	inputs := make(map[string]scaling.Input, len(c.App.Graphs))
	for _, g := range c.App.Graphs {
		inputs[g.Service] = scaling.Input{
			Graph:   g,
			SLA:     c.App.SLAs[g.Service],
			Models:  c.Models,
			Shares:  shares,
			CPUUtil: cpu,
			MemUtil: mem,
		}
	}
	return inputs
}

// dominantShares returns the per-microservice dominant resource share,
// cached: shares depend only on the container specs and the cluster's total
// capacity, so the map is rebuilt only when capacity changes (host loss or
// recovery), not every window.
func (c *Controller) dominantShares(cl *cluster.Cluster) map[string]float64 {
	cores, mem := cl.TotalCores(), cl.TotalMemMB()
	if c.shares != nil && cores == c.sharesCores && mem == c.sharesMemMB {
		return c.shares
	}
	shares := make(map[string]float64, len(c.App.Containers))
	for ms, spec := range c.App.Containers {
		shares[ms] = cl.DominantShare(spec)
	}
	c.shares, c.sharesCores, c.sharesMemMB = shares, cores, mem
	return shares
}

// Explain renders the Algorithm 1 merge tree and latency-target derivation
// for one service at the given request rates — the Fig. 7/8 walkthrough as
// an operator-facing debugging tool. It uses each service's own workload
// (the initial Latency Target Computation pass of §5.3.2).
func (c *Controller) Explain(service string, rates map[string]float64) (string, error) {
	if len(c.Models) == 0 {
		return "", errors.New("core: no latency models; call UseAnalyticModels or ProfileOffline first")
	}
	g := c.App.Graph(service)
	if g == nil {
		return "", fmt.Errorf("core: unknown service %s", service)
	}
	cl := c.Orch.Cluster()
	shares := c.dominantShares(cl)
	in := scaling.Input{
		Graph:     g,
		SLA:       c.App.SLAs[service],
		Models:    c.Models,
		Shares:    shares,
		Workloads: c.serviceLoads(g, rates[service]),
		CPUUtil:   cl.MeanCPUUtil(),
		MemUtil:   cl.MeanMemUtil(),
	}
	return scaling.Explain(in)
}

// Apply reconciles the plan onto the cluster through the orchestrator with
// atomic-or-rollback semantics: either every microservice reaches its
// planned count, or the deployment is restored to its pre-apply replica
// counts (microservices created by this apply are deleted again) and the
// original error is returned. A mid-apply failure therefore never leaves the
// orchestrator halfway between two plans.
func (c *Controller) Apply(plan *multiplex.Plan) error {
	names := c.applyNames(plan.Containers)
	snap := c.applySnap[:0]
	for _, ms := range names {
		d, ok := c.Orch.Deployment(ms)
		snap = append(snap, priorDeployment{existed: ok, replicas: d.Replicas})
	}
	c.applySnap = snap
	for i, ms := range names {
		if err := c.Orch.Apply(c.App.Containers[ms], plan.Containers[ms]); err != nil {
			// Roll back everything touched so far, including the partial
			// progress of the failed microservice. Rollback only deletes or
			// scales toward prior counts; a scale-up back to a prior count can
			// itself fail on a degraded cluster, which we fold into the error.
			var rbErr error
			for j := i; j >= 0; j-- {
				p := snap[j]
				var e error
				if !p.existed {
					e = c.Orch.Delete(names[j])
				} else {
					e = c.Orch.Scale(names[j], p.replicas)
				}
				if e != nil && rbErr == nil {
					rbErr = e
				}
			}
			c.Obs.Inc(obs.CtrApplyRollbacks)
			if rbErr != nil {
				return fmt.Errorf("core: applying %s: %w (rollback incomplete: %v)", ms, err, rbErr)
			}
			return fmt.Errorf("core: applying %s: %w (rolled back)", ms, err)
		}
	}
	c.Obs.Inc(obs.CtrApplies)
	return nil
}

// applyNames returns the planned microservices sorted. Plans of consecutive
// windows usually name the same microservices, so the previous order is
// reused and the names are sorted again only when the key set differs.
func (c *Controller) applyNames(counts map[string]int) []string {
	same := len(counts) == len(c.applyOrder)
	for i := 0; same && i < len(c.applyOrder); i++ {
		_, same = counts[c.applyOrder[i]]
	}
	if !same {
		c.applyOrder = make([]string, 0, len(counts))
		for ms := range counts {
			c.applyOrder = append(c.applyOrder, ms)
		}
		sort.Strings(c.applyOrder)
	}
	return c.applyOrder
}

// Priorities converts a plan's ranks into the per-microservice service
// priorities the simulator's δ-policy consumes. Nil for non-priority
// schemes.
func (c *Controller) Priorities(plan *multiplex.Plan) map[string]map[string]int {
	if plan.Scheme != multiplex.SchemePriority {
		return nil
	}
	return plan.Ranks
}

// EvalResult summarizes one evaluation window.
type EvalResult struct {
	Sim *sim.Result
	// Violations aggregates per-service SLA misses (slow completions plus
	// errors over everything issued).
	Violations map[string]float64
	// TailLatency holds the per-service P95 end-to-end latency.
	TailLatency map[string]float64
	// ErrorRate holds the per-service fraction of requests that failed
	// outright — a crash, no container up, or what the controller's
	// Resilience arms (timeouts, shedding, an open breaker) — over every
	// request that ended.
	ErrorRate map[string]float64
	// Goodput is the aggregate rate of requests completed within their SLA,
	// in requests per minute across all services.
	Goodput float64
}

// EvalOpts carries fault-injection and workload-shape inputs for one
// evaluation window.
type EvalOpts struct {
	// Failures are container/host outages injected into the window's
	// simulation (times relative to the window start).
	Failures []sim.Failure
	// DropMinutes are window minutes whose metrics and traces are lost.
	DropMinutes []int
	// Streams replaces the per-service Static patterns derived from rates
	// with explicit SLO-tiered cohort streams (see sim.Stream). Services
	// covered by at least one stream ignore their rates entry; per-tier
	// outcomes are surfaced under the erms.data.tier_* counters.
	Streams []sim.Stream
	// SimMode selects the evaluation engine fidelity: sim.SimExact (the
	// default, byte-identical to the historical serial engine) or
	// sim.SimHybrid (fluid fast path for far-from-knee microservices).
	SimMode sim.SimMode
	// SimPartitions caps the concurrent sharing-group partition tasks of
	// the evaluation run (sim.PartitionOpts.Partitions). 0 with SimExact
	// keeps the serial engine; any other combination runs partitioned by
	// sharing group (see sim.Run).
	SimPartitions int
}

// EvaluatePlan applies a precomputed plan and simulates it.
func (c *Controller) EvaluatePlan(plan *multiplex.Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64) (*EvalResult, error) {
	if err := c.Apply(plan); err != nil {
		return nil, err
	}
	return c.EvaluateDeployed(plan, rates, durationMin, warmupMin, seed, EvalOpts{})
}

// EvaluateDeployed simulates the *current* deployment (it does not apply the
// plan, which is used only for priorities) with the given fault-injection
// options. The resilient control loop uses this after its own apply phase, so
// a degraded window can still be measured even when applying a fresh plan
// failed.
func (c *Controller) EvaluateDeployed(plan *multiplex.Plan, rates map[string]float64, durationMin, warmupMin float64, seed uint64, opts EvalOpts) (*EvalResult, error) {
	// A service with streams ignores its Patterns entry (sim.Config).
	patterns := make(map[string]workload.Pattern, len(rates))
	for svc, r := range rates {
		patterns[svc] = workload.Static{Rate: r}
	}
	cfg := sim.Config{
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
		Failures:       opts.Failures,
		DropMinutes:    opts.DropMinutes,
		Resilience:     c.Resilience,
		Streams:        opts.Streams,
	}
	res, err := sim.Run(cfg, sim.PartitionOpts{
		Mode:       opts.SimMode,
		Partitions: opts.SimPartitions,
	})
	if err != nil {
		return nil, err
	}
	res.ExportTo(c.Obs)
	n := len(res.PerService)
	out := &EvalResult{
		Sim:         res,
		Violations:  make(map[string]float64, n),
		TailLatency: make(map[string]float64, n),
		ErrorRate:   make(map[string]float64, n),
	}
	// Fold in sorted service order: Goodput is a float sum, and float
	// addition is not associative, so map-range order would make two
	// identical evaluations differ in the last ulp.
	for _, svc := range sortutil.Keys(res.PerService) {
		sr := res.PerService[svc]
		out.Violations[svc] = sr.ViolationRate()
		out.TailLatency[svc] = sr.P95()
		out.ErrorRate[svc] = sr.ErrorRate()
		if res.SimulatedMin > 0 {
			out.Goodput += float64(sr.Good()) / res.SimulatedMin
		}
	}
	return out, nil
}

// OfflineConfig drives empirical profiling (§6.2): each interference level
// is held while every workload point runs, mirroring the hour-by-hour
// iBench injection of the paper's data collection.
type OfflineConfig struct {
	// Rates are the per-service request rates (req/min) swept at each of
	// workload.InterferenceLevels. If a service is missing it uses the first
	// rate.
	Rates []float64
	// FromTraces fits from the Tracing Coordinator's sampled spans (the
	// production path of §5.1-5.2: Eq. 1 latencies, inverse-sampling
	// workload estimates) instead of the simulator's exact aggregates.
	FromTraces bool
}

// The offline sweep measures every (rate, level) point for profileWindowMin
// simulated minutes after a half-minute warm-up, on profileContainersPerMS
// containers of each microservice.
const (
	profileWindowMin       = 3
	profileContainersPerMS = 2
)

// steady reports whether one microservice's per-minute samples of a sweep
// point come from a queue in steady state. An overloaded queue has none: its
// backlog, and with it the tail, grows every minute — by 45 % or more from
// one measured minute to the next in a profileWindowMin sweep, against at
// most 20 % of noise at a stable point. Those samples (tails of seconds to
// minutes at the heavy canonical levels) are outside any range the planner
// targets, and left in they dominate the pooled high-interval fit.
func steady(minutes []profiling.Sample) bool {
	for i := 1; i < len(minutes); i++ {
		if minutes[i].TailMs > 1.3*minutes[i-1].TailMs {
			return false
		}
	}
	return true
}

// ProfileOffline runs the offline profiling sweeps on the controller's
// application and replaces Models with fitted piece-wise models. It returns
// the microservices that could not be fitted (they keep analytic models if
// present).
func (c *Controller) ProfileOffline(cfg OfflineConfig) ([]string, error) {
	if len(cfg.Rates) == 0 {
		return nil, errors.New("core: ProfileOffline needs workload rates")
	}
	cl := c.Orch.Cluster()

	// The (level × rate) sweep points are independent: each one deploys a
	// fixed profiling placement and runs the simulator with its own seed.
	// They fan out across the worker pool; each run gets a private clone of
	// the cluster geometry (hosts + backgrounds + placement — container IDs
	// restart per clone, but the simulator only depends on placement order)
	// and, under FromTraces, a private Tracing Coordinator. Seeds are
	// assigned by flat sweep index, matching the seed++ of a sequential
	// sweep, and results merge in sweep order, so the fitted models are
	// identical at any worker count.
	type sweepPoint struct {
		lvl  workload.Interference
		rate float64
	}
	points := make([]sweepPoint, 0, len(workload.InterferenceLevels)*len(cfg.Rates))
	for _, lvl := range workload.InterferenceLevels {
		for _, rate := range cfg.Rates {
			points = append(points, sweepPoint{lvl, rate})
		}
	}
	perRun, err := parallel.Map(len(points), func(i int) (map[string][]profiling.Sample, error) {
		lvl, rate := points[i].lvl, points[i].rate
		run := cluster.New(cl.NumHosts(), cl.Hosts()[0].Spec())
		for hi, h := range cl.Hosts() {
			if err := run.SetHostSpec(hi, h.Spec()); err != nil {
				return nil, err
			}
			if err := run.SetBackground(hi, lvl); err != nil {
				return nil, err
			}
		}
		if err := placeForProfiling(run, c.App); err != nil {
			return nil, err
		}
		patterns := make(map[string]workload.Pattern)
		for _, g := range c.App.Graphs {
			patterns[g.Service] = workload.Static{Rate: rate}
		}
		simCfg := sim.Config{
			Seed:         uint64(i),
			Cluster:      run,
			Interference: c.Interference,
			Profiles:     c.App.Profiles,
			Graphs:       c.App.Graphs,
			Patterns:     patterns,
			DurationMin:  profileWindowMin + 0.5,
			WarmupMin:    0.5,
		}
		var coord *trace.Coordinator
		if cfg.FromTraces {
			coord = trace.NewCoordinator(c.Coordinator.SampleRate)
			simCfg.Observer = coord
			simCfg.SampleRate = coord.SampleRate
		}
		res, err := sim.Run(simCfg, sim.PartitionOpts{})
		if err != nil {
			return nil, err
		}
		out := make(map[string][]profiling.Sample)
		if cfg.FromTraces {
			// The production path: Eq. 1 latencies and inverse-sampling
			// workload estimates from the Tracing Coordinator, joined
			// with the injected interference level (the OS metrics).
			aggs := coord.MinuteAggregates(func(string) int { return profileContainersPerMS })
			for _, a := range aggs {
				// Minute 0 overlaps the warmup transient; drop it.
				if a.Minute == 0 || a.Calls == 0 || a.TailMs <= 0 {
					continue
				}
				out[a.Microservice] = append(out[a.Microservice], profiling.Sample{
					Workload: a.PerContainerCalls,
					TailMs:   a.TailMs,
					CPUUtil:  lvl.CPU,
					MemUtil:  lvl.Mem,
				})
			}
		} else {
			for ms, ss := range profiling.FromMinuteSamples(res.Samples) {
				out[ms] = append(out[ms], ss...)
			}
		}
		// Fixed rates overload the slower microservices at the heavy
		// levels; their samples of this point are dropped.
		for ms, ss := range out {
			if !steady(ss) {
				delete(out, ms)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	samples := make(map[string][]profiling.Sample)
	for _, runSamples := range perRun {
		for ms, ss := range runSamples {
			samples[ms] = append(samples[ms], ss...)
		}
	}
	models, failed := profiling.FitAll(samples, profiling.FitConfig{})
	for ms, m := range models {
		c.Models[ms] = m
	}
	sort.Strings(failed)
	return failed, nil
}

// placeForProfiling deploys profileContainersPerMS containers of every
// microservice of app on run, round-robin over its hosts.
func placeForProfiling(run *cluster.Cluster, app *apps.App) error {
	for _, ms := range app.Microservices() {
		spec := app.Containers[ms]
		for k := 0; k < profileContainersPerMS; k++ {
			if _, err := run.Place(spec, run.NumContainers()%run.NumHosts()); err != nil {
				return fmt.Errorf("core: profiling placement: %w", err)
			}
		}
	}
	return nil
}
