package core

import (
	"errors"
	"fmt"

	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/sim"
	"erms/internal/stats"
)

// Reconciler runs the periodic control loop of Fig. 6: every window it
// observes the workload, re-runs Online Scaling, reconciles the deployment
// (with scale-down hysteresis to avoid container churn), and measures the
// window's real behaviour in the simulator.
//
// The loop is resilient: replacement scheduling re-places
// containers lost to failed hosts before planning, transient plan/apply
// failures are retried with deterministic exponential backoff, and a window
// whose planning fails outright falls back to the last good plan instead of
// aborting the run (degraded mode). Plan application is atomic-or-rollback
// (Controller.Apply), so a failed window never leaves the orchestrator
// halfway between two plans.
type Reconciler struct {
	C *Controller
	// WindowMin is the scaling interval in simulated minutes. Default 1.5.
	WindowMin float64
	// WarmupMin is excluded from each window's statistics. Default 0.3.
	WarmupMin float64
	// DownscaleSlack delays scale-down: a microservice is only shrunk when
	// the new plan is below the current count by more than this fraction.
	// Scale-ups always apply immediately (SLA safety is asymmetric).
	// Default 0.15.
	DownscaleSlack float64
	// RebalanceMoves bounds the background container migrations the
	// Resource Provisioning module performs each window to smooth
	// utilization imbalance (§5.4). 0 disables rebalancing.
	RebalanceMoves int

	// Chaos, when non-nil, injects faults into the loop: transient
	// control-plane operation errors, per-window container/host outages for
	// the simulation, and observability gaps. Implemented by chaos.Injector.
	Chaos ChaosHook

	// StreamsFor, when non-nil, supplies per-window cohort streams for the
	// evaluation (spec-compiled scenarios carry tiers and per-cohort SLAs
	// the aggregate rate map cannot express). A service without a stream is
	// offered its rate as one standard-tier open-loop source.
	StreamsFor func(window int) []sim.Stream

	window   int // windows completed so far
	lastPlan *multiplex.Plan
}

// The loop's resilience parameters.
const (
	// maxRetries bounds re-attempts of a failed plan or apply within one
	// window; past it the window degrades to the last good plan.
	maxRetries = 2
	// backoffMin is the base of the exponential backoff between retries in
	// simulated minutes: attempt k waits backoffMin·2^k·(1+jitter), with
	// jitter = backoffJitter·U[0,1) drawn from the window's seed. The
	// accumulated delay is recorded in the WindowReport (the loop runs in
	// simulated time, so nothing sleeps).
	backoffMin    = 0.05
	backoffJitter = 0.5
)

// ChaosHook is the fault-injection surface the loop consults each window.
type ChaosHook interface {
	// OpError returns a transient error for the named control-plane
	// operation ("plan", "apply") at the given window and attempt, or nil.
	OpError(window int, op string, attempt int) error
	// WindowFailures returns the container/host outages to inject into the
	// window's simulation (times relative to the window start).
	WindowFailures(window int) []sim.Failure
	// ObservabilityGap reports whether the window's metrics and traces are
	// dropped before reaching the control plane.
	ObservabilityGap(window int) bool
}

// WindowReport summarizes one reconciliation window.
type WindowReport struct {
	Window      int
	Rates       map[string]float64
	Containers  int
	Violations  map[string]float64
	TailLatency map[string]float64
	// ErrorRate holds the per-service fraction of requests that failed
	// outright in the window's simulation (see EvalResult.ErrorRate); nil
	// only for an Outage window, which could not be simulated.
	ErrorRate map[string]float64
	// Goodput is the aggregate rate of requests completed within their SLA,
	// requests per minute.
	Goodput float64
	// ScaledUp / ScaledDown count the microservices that changed.
	ScaledUp   int
	ScaledDown int
	// Repaired counts replacement containers placed for hosts lost to
	// failures before this window's planning.
	Repaired int
	// Retries counts failed plan/apply attempts that were retried.
	Retries int
	// ModelSwaps counts latency models the drift loop re-fitted and swapped
	// after this window's evaluation (0 unless the controller runs with
	// WithDriftDetection). A swap takes effect at the next window's plan.
	ModelSwaps int
	// BackoffMin is the simulated time spent backing off between retries.
	BackoffMin float64
	// Degraded marks a window that ran on the last good plan because
	// planning or applying failed past the retry budget.
	Degraded bool
	// Outage marks a window that could not be measured at all (for example,
	// a microservice with zero live containers); its Violations are pinned
	// to 1 for every service — requests had nowhere to go.
	Outage bool
	// ObsGap marks a window whose metric/trace samples were dropped by an
	// observability fault; end-to-end results are still measured.
	ObsGap bool
	// PhaseMs maps Step phase names (obs.PhaseRepair … obs.PhaseEvaluate)
	// to their wall-clock durations in milliseconds — the controller's own
	// decision latency. Populated only when the controller carries an
	// obs.Recorder (Controller.Obs); nil otherwise (and excluded from determinism
	// comparisons, since wall time is not seeded).
	PhaseMs map[string]float64 `json:"-"`
	// StreamMinutes holds the window's per-minute, per-stream outcome rows
	// (sim.Result.StreamMinutes: minutes × streams, window-local minutes,
	// warm-up excluded) — the raw material of a spec run's timeline. Nil
	// unless the window ran cohort streams (StreamsFor). The report keeps
	// these rows only, never the sim.Result they came from.
	StreamMinutes []sim.StreamMinute `json:"-"`
}

// NewReconciler wraps a controller with default loop parameters.
func NewReconciler(c *Controller) *Reconciler {
	return &Reconciler{C: c, WindowMin: 1.5, WarmupMin: 0.3, DownscaleSlack: 0.15}
}

// Window returns the index of the window the next Step runs.
func (r *Reconciler) Window() int { return r.window }

// applyWithHysteresis merges the new plan with the current deployment:
// scale-ups apply immediately, scale-downs only past the slack. Plans are
// immutable (see multiplex.Plan), so the adjusted counts go into a new Plan
// value sharing plan's PerService and Ranks; it is returned only after the
// (atomic-or-rollback) apply succeeds.
func (r *Reconciler) applyWithHysteresis(plan *multiplex.Plan) (applied *multiplex.Plan, up, down int, err error) {
	adjusted := make(map[string]int, len(plan.Containers))
	for ms, want := range plan.Containers {
		cur := r.C.Orch.Replicas(ms)
		switch {
		case want > cur:
			up++
		case want < cur:
			if float64(cur-want) <= r.DownscaleSlack*float64(cur) {
				adjusted[ms] = cur // hold: inside the slack band
				continue
			}
			down++
		}
		adjusted[ms] = want
	}
	out := *plan
	out.Containers = adjusted
	if err := r.C.Apply(&out); err != nil {
		return nil, 0, 0, err
	}
	return &out, up, down, nil
}

// opError consults the chaos hook for an injected control-plane fault.
func (r *Reconciler) opError(window int, op string, attempt int) error {
	if r.Chaos == nil {
		return nil
	}
	return r.Chaos.OpError(window, op, attempt)
}

// withRetry runs op up to 1+maxRetries times, accumulating deterministic
// exponential backoff (in simulated minutes) into the report.
func (r *Reconciler) withRetry(window int, op string, rng *stats.RNG, rep *WindowReport, f func() error) error {
	for attempt := 0; ; attempt++ {
		err := r.opError(window, op, attempt)
		if err == nil {
			err = f()
		}
		if err == nil {
			return nil
		}
		if attempt >= maxRetries {
			return err
		}
		rep.Retries++
		rep.BackoffMin += backoffMin * float64(uint(1)<<uint(attempt)) * (1 + backoffJitter*rng.Float64())
	}
}

// notePhase finishes a phase span and files its wall-clock duration into
// the report. With no recorder this is a single nil check (the span was
// inert and never read the clock).
func (r *Reconciler) notePhase(rep *WindowReport, name string, sp obs.Span) {
	if r.C.Obs == nil {
		return
	}
	if rep.PhaseMs == nil {
		rep.PhaseMs = make(map[string]float64, 5)
	}
	rep.PhaseMs[name] = sp.End()
}

// finishWindow publishes the completed window's loop counters under
// erms.self.* (its phase spans are already on the recorder). No-op without a
// recorder.
func (r *Reconciler) finishWindow(rep *WindowReport) {
	o := r.C.Obs
	if o == nil {
		return
	}
	o.Inc(obs.CtrWindows)
	o.Add(obs.CtrRetries, float64(rep.Retries))
	o.Add(obs.CtrBackoffMin, rep.BackoffMin)
	o.Add(obs.CtrScaleUps, float64(rep.ScaledUp))
	o.Add(obs.CtrScaleDowns, float64(rep.ScaledDown))
	o.Add(obs.CtrRepaired, float64(rep.Repaired))
	o.Add(obs.CtrDegradedWindows, b2f(rep.Degraded))
	o.Add(obs.CtrOutageWindows, b2f(rep.Outage))
	o.Add(obs.CtrObsGapWindows, b2f(rep.ObsGap))
	o.Set(obs.GaugeContainers, float64(rep.Containers))
}

// b2f materializes a boolean counter increment: adding 0 still creates the
// series, so a clean run exports erms.self.degraded_windows_total 0 rather
// than omitting it.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Step runs one window at the given observed rates. Configuration errors
// (nil controller, missing models on the first window with no fallback plan)
// still return an error; transient planning/apply failures do not abort the
// loop once a good plan exists.
func (r *Reconciler) Step(rates map[string]float64, seed uint64) (*WindowReport, error) {
	if r.C == nil {
		return nil, errors.New("core: reconciler without controller")
	}
	w := r.Window()
	// Jitter stream: derived from the window seed only, so a run is
	// reproducible from its seeds regardless of wall-clock interleaving.
	rng := stats.NewRNG(seed ^ 0xc4ce5f8a5c8ff3eb)
	report := WindowReport{Window: w, Rates: rates}

	// Replacement scheduling: converge live containers back to desired
	// replicas before planning, so the planner sees the true capacity.
	spRepair := r.C.Obs.StartSpan(obs.PhaseRepair, w)
	report.Repaired, _ = r.C.Orch.Repair() // best-effort; a degraded cluster plans with what it has
	r.notePhase(&report, obs.PhaseRepair, spRepair)

	spPlan := r.C.Obs.StartSpan(obs.PhasePlan, w)
	plan := (*multiplex.Plan)(nil)
	err := r.withRetry(w, "plan", rng, &report, func() error {
		p, e := r.C.Plan(rates)
		if e == nil {
			plan = p
		}
		return e
	})
	r.notePhase(&report, obs.PhasePlan, spPlan)
	if err != nil {
		if r.lastPlan == nil {
			return nil, fmt.Errorf("core: reconcile plan: %w", err)
		}
		plan = r.lastPlan
		report.Degraded = true
	}

	spApply := r.C.Obs.StartSpan(obs.PhaseApply, w)
	err = r.withRetry(w, "apply", rng, &report, func() error {
		applied, up, down, e := r.applyWithHysteresis(plan)
		if e == nil {
			plan = applied
			report.ScaledUp, report.ScaledDown = up, down
		}
		return e
	})
	r.notePhase(&report, obs.PhaseApply, spApply)
	if err == nil {
		r.lastPlan = plan
	} else {
		// Apply failed past the retry budget (rollback already restored the
		// previous deployment). Run the window on whatever is deployed.
		report.Degraded = true
		if r.lastPlan != nil {
			plan = r.lastPlan
		}
	}

	if r.RebalanceMoves > 0 {
		sp := r.C.Obs.StartSpan(obs.PhaseRebalance, w)
		provision.Rebalance(r.C.Orch.Cluster(), r.RebalanceMoves)
		r.notePhase(&report, obs.PhaseRebalance, sp)
	}

	var opts EvalOpts
	if r.StreamsFor != nil {
		opts.Streams = r.StreamsFor(w)
	}
	if r.Chaos != nil {
		opts.Failures = r.Chaos.WindowFailures(w)
		if r.Chaos.ObservabilityGap(w) {
			report.ObsGap = true
			for m := 0; m < int(r.WindowMin)+1; m++ {
				opts.DropMinutes = append(opts.DropMinutes, m)
			}
		}
	}
	spEval := r.C.Obs.StartSpan(obs.PhaseEvaluate, w)
	res, err := r.C.EvaluateDeployed(plan, rates, r.WindowMin, r.WarmupMin, seed, opts)
	r.notePhase(&report, obs.PhaseEvaluate, spEval)
	if err != nil {
		// The window cannot be measured — typically a microservice with zero
		// live containers on a degraded cluster. Count it as a full outage:
		// every service's requests had nowhere to go.
		report.Outage = true
		report.Violations = make(map[string]float64, len(r.C.App.Graphs))
		report.TailLatency = make(map[string]float64)
		for _, g := range r.C.App.Graphs {
			report.Violations[g.Service] = 1
		}
		report.Containers = r.C.Orch.Cluster().NumContainers()
		r.finishWindow(&report)
		r.window++
		return &report, nil
	}
	report.Containers = plan.TotalContainers()
	report.Violations = res.Violations
	report.TailLatency = res.TailLatency
	report.Goodput = res.Goodput
	report.StreamMinutes = res.Sim.StreamMinutes
	report.ErrorRate = res.ErrorRate
	// Online drift loop: score this window's live samples against the
	// models the plan was computed from, re-fit and swap whatever drifted.
	// Swapped models take effect at the next window's plan; the template
	// cache treats each swap as a single-service invalidation.
	report.ModelSwaps = len(r.C.ObserveDrift(res.Sim))
	r.finishWindow(&report)
	r.window++
	return &report, nil
}
