// Package operator is the long-running reconciliation daemon: it holds a
// declared desired state (an internal/spec document: application, SLAs,
// resilience policy, chaos timeline, drift config) and converges the running
// controller onto it through generation-numbered rollouts instead of process
// restarts.
//
// Every spec push — a file reload or an admin-API POST — becomes a new
// Generation. A generation moves through a staged state machine driven by
// simulated window time:
//
//	idle → canary → promoting → soaking → committed
//	                    ↓           ↓
//	               rolled-back  rolled-back
//
// The canary stage evaluates the candidate on a sandboxed slice of the
// fleet: ceil(fraction·N) services — the ones whose SLA the push changes
// first, then by sorted name — on a fraction-sized cluster, driven by the
// same cohort patterns scaled down by the fraction. Because the canary runs in its own cluster and controller,
// the production fleet is provably untouched until promotion — a bad push
// produces zero windows of fleet-wide regression beyond the canary slice,
// and the fleet's window reports stay byte-identical to a no-push run.
//
// Promotion is a configuration swap, never a restart: the candidate's SLA
// thresholds, resilience policy, and multiplexing scheme are installed on
// the live controller (the plan-template parameter hash makes an SLA swap a
// precise cache invalidation), then watched through one promoting window and
// a configurable soak. Any guardrail breach — per-window SLA-violation rate
// or error rate over the configured ceilings, or a full outage — restores
// the last-good configuration atomically via the controller's
// atomic-or-rollback Apply machinery. Model state (including drift-loop
// hot-swaps) deliberately survives both promotion and rollback: models track
// the substrate, not the spec.
//
// Everything is deterministic: the same bootstrap spec, pushes, and window
// schedule produce byte-identical histories at any worker count.
package operator

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"erms/internal/core"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/sim"
	"erms/internal/spec"
	"erms/internal/workload"
)

// Phase is the rollout state machine position.
type Phase int

// Rollout phases.
const (
	// PhaseIdle: no rollout in flight; the committed generation runs the
	// fleet.
	PhaseIdle Phase = iota
	// PhaseCanary: the candidate runs on the sandboxed canary slice; the
	// fleet still runs the committed generation.
	PhaseCanary
	// PhasePromoting: the candidate's configuration was just installed on
	// the fleet; the first full-fleet window under it is being watched.
	PhasePromoting
	// PhaseSoaking: post-promotion soak; SoakWindows clean windows commit
	// the generation.
	PhaseSoaking
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseCanary:
		return "canary"
	case PhasePromoting:
		return "promoting"
	case PhaseSoaking:
		return "soaking"
	default:
		return "unknown"
	}
}

// GenStatus is a generation's lifecycle status.
type GenStatus string

// Generation statuses.
const (
	StatusCommitted  GenStatus = "committed"
	StatusCanarying  GenStatus = "canarying"
	StatusPromoting  GenStatus = "promoting"
	StatusSoaking    GenStatus = "soaking"
	StatusQueued     GenStatus = "queued"
	StatusSuperseded GenStatus = "superseded"
	StatusRolledBack GenStatus = "rolled-back"
	StatusRejected   GenStatus = "rejected"
)

// Generation is one pushed spec version.
type Generation struct {
	ID     int       `json:"id"`
	Name   string    `json:"name"`
	Source string    `json:"source"`
	Status GenStatus `json:"status"`
	// PushedWindow is the operator window the push arrived in; DecidedWindow
	// the window the terminal status (committed / rolled-back / superseded /
	// rejected) was reached, -1 while in flight.
	PushedWindow  int    `json:"pushed_window"`
	DecidedWindow int    `json:"decided_window"`
	Reason        string `json:"reason,omitempty"`

	scenario *spec.Scenario
}

// Config parameterizes the rollout state machine.
type Config struct {
	// CanaryFraction is the slice of services (and of traffic, and of
	// cluster capacity) the canary sandbox gets. Default 0.25; clamped to
	// (0, 1].
	CanaryFraction float64
	// CanaryWindows is how many consecutive clean canary windows promote
	// the candidate. Default 3, min 1.
	CanaryWindows int
	// SoakWindows is how many clean full-fleet windows after promotion
	// commit the generation. Default 2; 0 commits right after the promoting
	// window.
	SoakWindows int
	// MaxViolationRate is the per-window guardrail on the worst service's
	// SLA-violation probability. Default 0.05.
	MaxViolationRate float64
	// MaxErrorRate is the per-window guardrail on the worst service's
	// outright-error rate (data-plane resilience enabled; ignored
	// otherwise). Default 0.05.
	MaxErrorRate float64
	// ChaosWindows sizes the fault schedule when the bootstrap spec carries
	// a chaos block and the operator will run past the spec horizon. 0 uses
	// the scenario's own window count.
	ChaosWindows int
}

func (c Config) withDefaults() Config {
	if c.CanaryFraction <= 0 || c.CanaryFraction > 1 {
		c.CanaryFraction = 0.25
	}
	if c.CanaryWindows < 1 {
		c.CanaryWindows = 3
	}
	if c.SoakWindows < 0 {
		c.SoakWindows = 2
	}
	if c.MaxViolationRate <= 0 {
		c.MaxViolationRate = 0.05
	}
	if c.MaxErrorRate <= 0 {
		c.MaxErrorRate = 0.05
	}
	return c
}

// WindowStatus is one operator window's outcome.
type WindowStatus struct {
	Window    int    `json:"window"`
	Phase     string `json:"phase"`
	Committed int    `json:"committed"`
	Candidate int    `json:"candidate,omitempty"`
	// Canary guardrail readings (phase canary only).
	CanaryViolationMax float64 `json:"canary_violation_max"`
	CanaryErrorMax     float64 `json:"canary_error_max"`
	// Fleet guardrail readings.
	FleetViolationMax float64 `json:"fleet_violation_max"`
	FleetErrorMax     float64 `json:"fleet_error_max"`
	FleetContainers   int     `json:"fleet_containers"`
	ModelSwaps        int     `json:"model_swaps"`
	Breach            bool    `json:"breach"`
	// Event records a state-machine transition this window:
	// rollout_started, promoted, committed, rolled_back, superseded. Empty
	// for steady-state windows. Multiple events join with '+'.
	Event string `json:"event,omitempty"`

	fleet *core.WindowReport
}

// FleetReport returns the fleet's full window report (nil if the fleet step
// failed). Callers comparing trajectories should ignore PhaseMs — it is
// wall-clock timing, outside the determinism contract.
func (s WindowStatus) FleetReport() *core.WindowReport { return s.fleet }

// savedConfig is the fleet configuration captured before a promotion so a
// breach can restore it atomically.
type savedConfig struct {
	slas       map[string]workload.SLA
	resilience *sim.Resilience
	scheme     multiplex.Scheme
}

// Operator is the daemon. Construct with New, then drive with Step (one
// call per simulated planning window); the admin handler in admin.go serves
// status, pushes, and explanations concurrently.
type Operator struct {
	Cfg Config

	mu  sync.Mutex
	rec *obs.Recorder

	fleet *core.Controller
	loop  *spec.Loop

	gens      []*Generation
	committed *Generation
	lastGood  *Generation
	cand      *Generation
	canary    *canaryRun
	clean     int
	soakLeft  int
	phase     Phase
	saved     savedConfig
	pending   []*Generation
	window    int
	// recent is a ring of the last recentWindows statuses (window w at index
	// w % recentWindows) — what /status serves; older windows are dropped.
	recent [recentWindows]WindowStatus
}

// recentWindows is how many completed windows the operator remembers.
const recentWindows = 8

// New builds an operator bootstrapped from the compiled scenario: the fleet
// loop is the one a batch spec run steps (spec.Scenario.NewLoop: same
// controller options, same analytic models), the scenario's chaos block (if
// any) becomes the fault schedule racing every rollout, and the scenario
// itself becomes committed generation 1.
func New(sc *spec.Scenario, cfg Config, rec *obs.Recorder) (*Operator, error) {
	cfg = cfg.withDefaults()
	faults, err := sc.ChaosSchedule(cfg.ChaosWindows)
	if err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	o := &Operator{Cfg: cfg, rec: rec}
	o.loop, err = sc.NewLoop(sc.App, sc.Hosts, rec, func(w int) []sim.Stream {
		return o.committed.scenario.WindowStreams(w % o.committed.scenario.Windows)
	}, faults)
	if err != nil {
		return nil, fmt.Errorf("operator: bootstrap controller: %w", err)
	}
	o.fleet = o.loop.Rec.C

	gen1 := &Generation{
		ID: 1, Name: sc.Spec.Name, Source: "bootstrap",
		Status: StatusCommitted, PushedWindow: 0, DecidedWindow: 0,
		scenario: sc,
	}
	o.gens = append(o.gens, gen1)
	o.committed, o.lastGood = gen1, gen1
	o.rec.Set(obs.GaugeGeneration, 1)
	return o, nil
}

// Window returns the next window index Step will run.
func (o *Operator) Window() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.window
}

// Generations returns a snapshot of every generation, bootstrap first.
func (o *Operator) Generations() []Generation {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Generation, len(o.gens))
	for i, g := range o.gens {
		out[i] = *g
	}
	return out
}

// Step runs one operator window: absorb queued pushes, run the canary
// sandbox (if a rollout is in flight), run the fleet window under the active
// configuration, and advance the state machine on the guardrail readings.
func (o *Operator) Step() (*WindowStatus, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.window
	st := WindowStatus{Window: w, Committed: o.committed.ID}
	var events []string

	// A queued push starts its canary as soon as the machine is idle.
	if o.phase == PhaseIdle && o.cand == nil && len(o.pending) > 0 {
		next := o.pending[0]
		o.pending = o.pending[1:]
		o.startRollout(next, w)
		events = append(events, "rollout_started")
	}

	// Canary window: the sandbox runs first, so a promotion decided here
	// takes effect in this same window's fleet step.
	if o.phase == PhaseCanary {
		rep, err := o.canary.step(w)
		if err != nil {
			// A canary that cannot even run is a breach, not an operator
			// failure — the fleet is untouched.
			o.decideRollback(w, fmt.Sprintf("canary window failed: %v", err))
			st.Breach = true
			events = append(events, "rolled_back")
		} else {
			st.CanaryViolationMax = maxOf(rep.Violations)
			st.CanaryErrorMax = maxOf(rep.ErrorRate)
			if breach, why := o.guardrails(rep); breach {
				o.decideRollback(w, "canary "+why)
				st.Breach = true
				events = append(events, "rolled_back")
			} else {
				o.clean++
				if o.clean >= o.Cfg.CanaryWindows {
					o.promote(w)
					events = append(events, "promoted")
				}
			}
		}
	}

	// Fleet window under the active configuration.
	rep, err := o.loop.Step(o.fleetRates(w), o.fleetSeed(w))
	if err != nil {
		return nil, fmt.Errorf("operator: fleet window %d: %w", w, err)
	}
	st.fleet = rep
	st.FleetViolationMax = maxOf(rep.Violations)
	st.FleetErrorMax = maxOf(rep.ErrorRate)
	st.FleetContainers = rep.Containers
	st.ModelSwaps = rep.ModelSwaps

	switch o.phase {
	case PhasePromoting:
		if breach, why := o.guardrails(rep); breach {
			o.rollbackFleet(w, "promoting "+why)
			st.Breach = true
			events = append(events, "rolled_back")
		} else if o.soakLeft = o.Cfg.SoakWindows; o.soakLeft == 0 {
			o.commit(w)
			events = append(events, "committed")
		} else {
			o.phase = PhaseSoaking
			o.cand.Status = StatusSoaking
		}
	case PhaseSoaking:
		if breach, why := o.guardrails(rep); breach {
			o.rollbackFleet(w, "soak "+why)
			st.Breach = true
			events = append(events, "rolled_back")
		} else if o.soakLeft--; o.soakLeft <= 0 {
			o.commit(w)
			events = append(events, "committed")
		}
	}

	st.Phase = o.phase.String()
	if o.cand != nil {
		st.Candidate = o.cand.ID
	}
	st.Event = strings.Join(events, "+")
	o.recent[w%recentWindows] = st
	o.window++
	return &st, nil
}

// guardrails evaluates the breach predicate on a window report: a full
// outage, an SLA-violation rate over the ceiling, or an error rate over the
// ceiling. Control-plane degradation (plan reuse after transient faults) is
// deliberately not a breach — the chaos timeline produces it in healthy
// steady state.
func (o *Operator) guardrails(rep *core.WindowReport) (bool, string) {
	if rep.Outage {
		return true, "window was a full outage"
	}
	if v := maxOf(rep.Violations); v > o.Cfg.MaxViolationRate {
		return true, fmt.Sprintf("SLA violation rate %.3f > %.3f", v, o.Cfg.MaxViolationRate)
	}
	if e := maxOf(rep.ErrorRate); e > o.Cfg.MaxErrorRate {
		return true, fmt.Sprintf("error rate %.3f > %.3f", e, o.Cfg.MaxErrorRate)
	}
	return false, ""
}

// startRollout begins a canary for gen. Callers hold the lock.
func (o *Operator) startRollout(gen *Generation, w int) {
	o.cand = gen
	o.cand.Status = StatusCanarying
	o.clean = 0
	o.canary = newCanaryRun(gen.scenario, o.Cfg, gen.ID, changedServices(gen.scenario, o.committed.scenario))
	o.phase = PhaseCanary
	o.rec.Inc(obs.CtrRolloutStarted)
}

// promote installs the candidate's configuration on the live fleet
// controller — an SLA-map, resilience, and scheme swap, never a restart —
// after capturing the current configuration for rollback.
func (o *Operator) promote(w int) {
	sc := o.cand.scenario
	o.saved = savedConfig{
		slas:       o.fleet.App.SLAs,
		resilience: o.fleet.Resilience,
		scheme:     o.fleet.Scheme,
	}
	slas := make(map[string]workload.SLA, len(sc.App.SLAs))
	for k, v := range sc.App.SLAs {
		slas[k] = v
	}
	o.fleet.App.SLAs = slas
	o.fleet.Resilience = sc.Resilience
	o.fleet.Scheme = sc.Scheme
	o.canary = nil
	o.phase = PhasePromoting
	o.cand.Status = StatusPromoting
}

// rollbackFleet restores the last-good configuration after a post-promotion
// breach and immediately re-plans and re-applies under it, leaning on the
// controller's atomic-or-rollback Apply. Models (including drift hot-swaps)
// are not reverted: they track the substrate, not the spec.
func (o *Operator) rollbackFleet(w int, why string) {
	o.fleet.App.SLAs = o.saved.slas
	o.fleet.Resilience = o.saved.resilience
	o.fleet.Scheme = o.saved.scheme
	if plan, err := o.fleet.Plan(o.fleetRates(w)); err == nil {
		// Best-effort immediate revert; the next window re-plans under the
		// restored configuration regardless.
		_ = o.fleet.Apply(plan)
	}
	o.decideRollback(w, why)
}

// decideRollback finalizes the candidate as rolled back (from canary or
// fleet) and returns the machine to idle. Callers hold the lock.
func (o *Operator) decideRollback(w int, why string) {
	o.cand.Status = StatusRolledBack
	o.cand.DecidedWindow = w
	o.cand.Reason = why
	o.cand = nil
	o.canary = nil
	o.clean = 0
	o.phase = PhaseIdle
	o.rec.Inc(obs.CtrRolloutRolledBack)
	o.rec.Set(obs.GaugeGeneration, float64(o.committed.ID))
}

// commit finalizes the candidate as the committed generation: it becomes
// the fleet's declared state and the rollback target for the next rollout.
func (o *Operator) commit(w int) {
	o.cand.Status = StatusCommitted
	o.cand.DecidedWindow = w
	o.committed = o.cand
	o.lastGood = o.cand
	o.cand = nil
	o.phase = PhaseIdle
	o.rec.Inc(obs.CtrRolloutPromoted)
	o.rec.Set(obs.GaugeGeneration, float64(o.committed.ID))
}

// fleetRates is the committed scenario's offered load for window w, cycling
// past the spec horizon so the operator can run indefinitely.
func (o *Operator) fleetRates(w int) map[string]float64 {
	sc := o.committed.scenario
	return sc.OfferedRates(w % sc.Windows)
}

// fleetSeed derives the fleet window seed from the bootstrap scenario alone
// — never from the rollout state — so a push that is canaried and rolled
// back leaves the fleet's windows byte-identical to a no-push run.
func (o *Operator) fleetSeed(w int) uint64 {
	return o.gens[0].scenario.Seed + uint64(w)*1000003 + 17
}

// maxOf returns the maximum value in m (0 for empty/nil).
func maxOf(m map[string]float64) float64 {
	out := 0.0
	for _, v := range m {
		if v > out {
			out = v
		}
	}
	return out
}

// sortedServices returns the app's service names sorted, the canonical
// order the canary slice is cut from.
func sortedServices(sc *spec.Scenario) []string {
	svcs := append([]string(nil), sc.App.Services()...)
	sort.Strings(svcs)
	return svcs
}

// changedServices returns, sorted, the services whose SLA differs between
// the candidate and the committed scenario. These are the services a canary
// must exercise: a tightened SLA that never reaches the canary slice would
// sail through clean and only breach after promotion, fleet-wide.
func changedServices(cand, cur *spec.Scenario) []string {
	var out []string
	for _, svc := range sortedServices(cand) {
		if cand.App.SLAs[svc] != cur.App.SLAs[svc] {
			out = append(out, svc)
		}
	}
	return out
}

// canarySlice returns the canary service set: ceil(fraction·N) service
// names, at least one, with the changed services first. If more services
// changed than the fraction covers, the slice grows to include all of them
// — an unexercised config change is a guardrail blind spot, not a saving.
func canarySlice(sc *spec.Scenario, fraction float64, changed []string) []string {
	svcs := sortedServices(sc)
	n := int(math.Ceil(fraction * float64(len(svcs))))
	if n < 1 {
		n = 1
	}
	if n < len(changed) {
		n = len(changed)
	}
	if n > len(svcs) {
		n = len(svcs)
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, svc := range changed {
		seen[svc] = true
		out = append(out, svc)
	}
	for _, svc := range svcs {
		if len(out) >= n {
			break
		}
		if !seen[svc] {
			out = append(out, svc)
		}
	}
	return out
}
