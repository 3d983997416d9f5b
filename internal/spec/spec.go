// Package spec is the declarative workload front-end: a versioned YAML/JSON
// schema describing an application, client cohorts with SLO tiers, and a
// timeline of population-dynamics phases (flash crowds, regional failovers,
// drains), compiled deterministically into the code-level scenario types
// (apps.App, workload.Pattern, sim/core configuration). Specs are parsed
// strictly — unknown fields, out-of-range values, and non-finite numbers are
// rejected with actionable errors — so a spec that parses today compiles to
// the same scenario bytes forever.
package spec

import (
	"fmt"
	"math"
	"strings"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/drift"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Spec is the root of a workload spec document.
type Spec struct {
	// Version is the schema version; must equal Version (1).
	Version int
	// Name labels the spec in reports and CSV artifacts. Default "spec".
	Name string
	// Seed is the top-level determinism seed: the same spec with the same
	// seed produces byte-identical runs. Default 1.
	Seed uint64
	// TimeScale compresses spec time: a value of k runs a spec-minute in
	// 1/k simulated minutes (durations, phase offsets, and pattern periods
	// all shrink together). Default 1 (no compression).
	TimeScale float64
	// App selects and parameterizes the application topology.
	App AppSpec
	// Run sets the evaluation horizon and cluster shape.
	Run RunSpec
	// Resilience optionally arms the data plane's per-call mechanisms
	// (timeouts, retries, breakers, shedding); knobs the resilience block
	// leaves out keep sim's defaults, and no block is the zero
	// sim.Resilience.
	Resilience *sim.Resilience
	// Chaos optionally declares a seeded fault-injection timeline (host
	// deaths, crashes, spikes, observability gaps, control-plane faults)
	// alongside the cohorts it stresses. The block sets the probability
	// knobs (all zero is valid: declared but dormant) and the seed
	// (default: the spec's top-level seed);
	// Scenario.ChaosSchedule sizes the rest to the compiled scenario. The
	// batch Scenario.Run and the long-running operator loop (`ermsctl
	// operate`) inject the same schedule on the one window loop
	// (Scenario.NewLoop).
	Chaos *chaos.Config
	// Drift optionally enables the controller's online model-drift
	// detection loop (detect → re-fit → hot-swap); zero knobs keep
	// drift.Config's defaults.
	Drift *drift.Config
	// Cohorts are the named client populations driving load.
	Cohorts []Cohort
	// Phases is the population-dynamics timeline applied on top of the
	// cohorts' base arrival patterns.
	Phases []Phase
}

// AppSpec selects the application topology.
type AppSpec struct {
	// Kind is one of "hotel", "social", "media", "alibaba", "scale", "file".
	Kind string
	// Path is the application JSON (persist.SaveApp's format) that kind
	// "file" loads, relative to the spec file's directory. A document parsed
	// from bytes (POST /spec, operator pushes) cannot name one: only a spec
	// read from a file may open a path.
	Path string
	// dir is the directory of the spec file the document was read from; ""
	// for a document parsed from bytes.
	dir string
	// ScaleConfig parameterizes the generated topologies. Seed (default: the
	// spec's top-level seed) and Services (0 keeps the generator's default:
	// 500 for alibaba, Taobao scale) apply to kinds "alibaba" and "scale";
	// the other three are exact-shape parameters of kind "scale" only.
	apps.ScaleConfig
	// seedSet records whether seed was present in the document.
	seedSet bool
	// SLAs overrides the topology's per-service end-to-end SLA threshold
	// (ms). Services absent from the map keep the topology default; service
	// names are checked at compile time. Unlike a cohort's sla_ms (which only
	// reclassifies that cohort's outcomes), these overrides feed the planner,
	// so a spec push that tightens them changes the resource plan.
	SLAs map[string]float64
}

// RunSpec sets the evaluation horizon and cluster shape.
type RunSpec struct {
	// DurationMin is the spec-time horizon in minutes (compressed by
	// TimeScale at compile time). Required.
	DurationMin float64
	// WarmupMin is excluded from reported metrics. Default 0.
	WarmupMin float64
	// WindowMin is the planning-window length: the controller re-plans from
	// observed per-window rates every WindowMin spec-minutes. Default:
	// DurationMin (a single window).
	WindowMin float64
	// Hosts is the cluster size. Default 40.
	Hosts int
	// Scheme is "priority" (default), "fcfs", or "nonshared".
	Scheme string
	// Models selects the latency models the planner starts from: "analytic"
	// (default; first-principles models of the service profiles) or
	// "profiled" (the Offline Profiler's piece-wise fits from simulated
	// sweeps, §5.2, with analytic models kept for microservices the sweeps
	// cannot fit). A running operator cannot change it.
	Models string
}

// Cohort is one named client population issuing requests to one service at
// one SLO tier.
type Cohort struct {
	// Name identifies the cohort in phases, reports, and CSV rows. Required,
	// unique, and CSV-safe (letters, digits, '-', '_', '.').
	Name string
	// Service is the entry service the cohort calls. Must exist in the app.
	Service string
	// Tier is the SLO tier: "critical", "standard", "sheddable", "batch".
	Tier workload.Tier
	// Arrival is the base arrival pattern before phases apply.
	Arrival ArrivalSpec
	// SLAMs overrides the app's per-service SLA threshold (ms) for this
	// cohort's requests. 0 keeps the app SLA.
	SLAMs float64
}

// ArrivalSpec describes a base arrival pattern in spec time.
type ArrivalSpec struct {
	// Kind is "static", "diurnal", or "trace".
	Kind string
	// Rate is the static req/min (kind "static").
	Rate float64
	// Diurnal parameters (kind "diurnal"): rate oscillates between Base and
	// Peak with the given period and phase offset, in spec-minutes.
	Base      float64
	Peak      float64
	PeriodMin float64
	PhaseMin  float64
	// Trace parameters (kind "trace"): piecewise-constant req/min steps of
	// StepMin spec-minutes each, cycling. TraceName labels the trace.
	Rates     []float64
	StepMin   float64
	TraceName string
}

// Phase kinds.
const (
	PhaseBaseline   = "baseline"    // constant multiplier over the interval
	PhaseFlashCrowd = "flash_crowd" // ramp up to Factor, hold, ramp back
	PhaseDrain      = "drain"       // ramp down to Factor (default 0), hold
	PhaseFailover   = "failover"    // shift Fraction of From's load onto To
)

// Phase is one population-dynamics event on the spec timeline. Phases
// compose multiplicatively on each affected cohort's base pattern; failover
// additionally adds the shifted load onto the target cohort's service at the
// target cohort's tier.
type Phase struct {
	// Name labels the phase in reports. Optional.
	Name string
	// Kind is one of the Phase* constants.
	Kind string
	// StartMin / DurationMin bound the phase in spec-minutes.
	StartMin    float64
	DurationMin float64
	// RampMin is the linear ramp in and out of the phase's full effect.
	// Default 0 (a step). Must satisfy 2*RampMin <= DurationMin.
	RampMin float64
	// Factor is the peak load multiplier (baseline, flash_crowd: required,
	// > 0; drain: residual level in [0, 1), default 0; failover: unused).
	Factor float64
	// factorSet records whether factor was present in the document.
	factorSet bool
	// Cohorts restricts the phase to the named cohorts (baseline,
	// flash_crowd, drain). Empty means all cohorts. Unused for failover.
	Cohorts []string
	// From / To / Fraction describe a failover: Fraction of From's offered
	// load is removed from From and added to To (failover only).
	From     string
	To       string
	Fraction float64
}

// End returns the phase end in spec-minutes.
func (p Phase) End() float64 { return p.StartMin + p.DurationMin }

// appKinds maps spec app kinds to a description used in errors.
var appKinds = map[string]bool{"hotel": true, "social": true, "media": true, "alibaba": true, "scale": true, "file": true}

var schemes = map[string]bool{"priority": true, "fcfs": true, "nonshared": true}

var models = map[string]bool{"analytic": true, "profiled": true}

var phaseKinds = map[string]bool{PhaseBaseline: true, PhaseFlashCrowd: true, PhaseDrain: true, PhaseFailover: true}

// nameOK reports whether s is CSV- and report-safe.
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Validate checks everything that does not require the compiled app (service
// existence is checked by Compile). Errors name the offending field and say
// what would be accepted.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version must be %d, got %d", Version, s.Version)
	}
	if !nameOK(s.Name) {
		return fmt.Errorf("spec: name %q must use only letters, digits, '-', '_', '.'", s.Name)
	}
	if !(s.TimeScale > 0) || s.TimeScale > 1000 {
		return fmt.Errorf("spec: time_scale must be in (0, 1000], got %g", s.TimeScale)
	}
	if err := s.App.validate(); err != nil {
		return err
	}
	if err := s.Run.validate(); err != nil {
		return err
	}
	if s.Resilience != nil {
		if err := validateResilience(s.Resilience); err != nil {
			return err
		}
	}
	if s.Chaos != nil {
		if err := validateChaos(s.Chaos, s.Run.Hosts); err != nil {
			return err
		}
	}
	if s.Drift != nil {
		if err := validateDrift(s.Drift); err != nil {
			return err
		}
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("spec: at least one cohort is required")
	}
	byName := make(map[string]*Cohort, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		at := fmt.Sprintf("spec: cohorts[%d]", i)
		if c.Name != "" {
			at = fmt.Sprintf("spec: cohort %q", c.Name)
		}
		if !nameOK(c.Name) {
			return fmt.Errorf("%s: name %q must be non-empty and use only letters, digits, '-', '_', '.'", at, c.Name)
		}
		if _, dup := byName[c.Name]; dup {
			return fmt.Errorf("spec: duplicate cohort name %q", c.Name)
		}
		byName[c.Name] = c
		if c.Service == "" {
			return fmt.Errorf("%s: service is required", at)
		}
		if !c.Tier.Valid() {
			return fmt.Errorf("%s: invalid tier (want critical, standard, sheddable, or batch)", at)
		}
		if c.SLAMs < 0 {
			return fmt.Errorf("%s: sla_ms must be >= 0, got %g", at, c.SLAMs)
		}
		if err := c.Arrival.validate(at); err != nil {
			return err
		}
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i, s.Run.DurationMin, byName); err != nil {
			return err
		}
	}
	return nil
}

func (a *AppSpec) validate() error {
	if !appKinds[a.Kind] {
		return fmt.Errorf("spec: app.kind %q unknown (want hotel, social, media, alibaba, scale, or file)", a.Kind)
	}
	generated := a.Kind == "alibaba" || a.Kind == "scale"
	if a.seedSet && !generated {
		return fmt.Errorf("spec: app.seed only applies to generated topologies (alibaba, scale), not %q", a.Kind)
	}
	if a.Kind == "file" {
		if a.dir == "" {
			return fmt.Errorf("spec: app.kind \"file\" opens a path, so only a spec read from a file may use it, not a document sent as bytes")
		}
		if a.Path == "" {
			return fmt.Errorf("spec: app.path is required for kind \"file\"")
		}
	} else if a.Path != "" {
		return fmt.Errorf("spec: app.path only applies to kind \"file\", not %q", a.Kind)
	}
	for _, svc := range sortutil.Keys(a.SLAs) {
		ms := a.SLAs[svc]
		if svc == "" {
			return fmt.Errorf("spec: app.slas: service name must be non-empty")
		}
		if math.IsNaN(ms) || math.IsInf(ms, 0) || !(ms > 0) || ms > 1e6 {
			return fmt.Errorf("spec: app.slas.%s must be in (0, 1e6] ms, got %g", svc, ms)
		}
	}
	if !generated && a.Services != 0 {
		return fmt.Errorf("spec: app.services only applies to generated topologies (alibaba, scale), not %q", a.Kind)
	}
	if a.Services < 0 || a.Services > 10000 {
		return fmt.Errorf("spec: app.services must be in [0, 10000] (0 = default), got %d", a.Services)
	}
	if a.Kind != "scale" {
		if a.MicroservicesPerService != 0 || a.SharingDegree != 0 || a.MaxStageWidth != 0 {
			return fmt.Errorf("spec: app.microservices_per_service/sharing_degree/max_stage_width only apply to kind \"scale\", not %q", a.Kind)
		}
		return nil
	}
	if a.MicroservicesPerService < 0 || a.MicroservicesPerService > 1000 {
		return fmt.Errorf("spec: app.microservices_per_service must be in [0, 1000] (0 = default), got %d", a.MicroservicesPerService)
	}
	if a.SharingDegree < 0 {
		return fmt.Errorf("spec: app.sharing_degree must be >= 0 (0 = default), got %d", a.SharingDegree)
	}
	if a.MaxStageWidth < 0 {
		return fmt.Errorf("spec: app.max_stage_width must be >= 0 (0 = default), got %d", a.MaxStageWidth)
	}
	return nil
}

func (r *RunSpec) validate() error {
	const week = 7 * 24 * 60
	if !(r.DurationMin > 0) || r.DurationMin > week {
		return fmt.Errorf("spec: run.duration_min must be in (0, %d] spec-minutes, got %g", week, r.DurationMin)
	}
	if r.WarmupMin < 0 || r.WarmupMin >= r.DurationMin {
		return fmt.Errorf("spec: run.warmup_min must be in [0, duration_min), got %g", r.WarmupMin)
	}
	if !(r.WindowMin > 0) || r.WindowMin > r.DurationMin {
		return fmt.Errorf("spec: run.window_min must be in (0, duration_min], got %g", r.WindowMin)
	}
	if r.Hosts < 1 || r.Hosts > 100000 {
		return fmt.Errorf("spec: run.hosts must be in [1, 100000], got %d", r.Hosts)
	}
	if !schemes[r.Scheme] {
		return fmt.Errorf("spec: run.scheme %q unknown (want priority, fcfs, or nonshared)", r.Scheme)
	}
	if !models[r.Models] {
		return fmt.Errorf("spec: run.models %q unknown (want analytic or profiled)", r.Models)
	}
	return nil
}

// validateResilience range-checks the resilience block. Unknown tier names
// in tier_shed_factors are rejected when the document is decoded.
func validateResilience(r *sim.Resilience) error {
	nonNeg := []struct {
		name string
		v    float64
	}{
		{"timeout_sla_multiple", r.TimeoutSLAMultiple},
		{"request_timeout_ms", r.RequestTimeoutMs},
		{"attempt_timeout_ms", r.AttemptTimeoutMs},
		{"retry_budget", r.RetryBudget},
		{"shed_max_wait_ms", r.ShedMaxWaitMs},
	}
	for _, f := range nonNeg {
		if f.v < 0 {
			return fmt.Errorf("spec: resilience.%s must be >= 0, got %g", f.name, f.v)
		}
	}
	if r.MaxAttempts < 0 || r.MaxAttempts > 100 {
		return fmt.Errorf("spec: resilience.max_attempts must be in [0, 100], got %d", r.MaxAttempts)
	}
	if r.BreakerFailureRate < 0 || r.BreakerFailureRate > 1 {
		return fmt.Errorf("spec: resilience.breaker_failure_rate must be in [0, 1], got %g", r.BreakerFailureRate)
	}
	for tier, f := range r.TierShedFactors {
		if f < 0 {
			return fmt.Errorf("spec: resilience.tier_shed_factors.%s must be >= 0, got %g", workload.Tier(tier), f)
		}
	}
	return nil
}

func validateChaos(c *chaos.Config, hosts int) error {
	probs := []struct {
		name string
		v    float64
	}{
		{"p_host_fail", c.PHostFail},
		{"p_crash", c.PCrash},
		{"p_spike", c.PSpike},
		{"p_obs_gap", c.PObsGap},
		{"p_op_fail", c.POpFail},
	}
	for _, p := range probs {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("spec: chaos.%s is a probability and must be in [0, 1], got %g", p.name, p.v)
		}
	}
	if c.DownWindows < 0 || c.DownWindows > 1000 {
		return fmt.Errorf("spec: chaos.down_windows must be in [0, 1000] (0 = default 2), got %d", c.DownWindows)
	}
	if c.MaxHostsDown < 0 || (hosts > 0 && c.MaxHostsDown > hosts) {
		return fmt.Errorf("spec: chaos.max_hosts_down must be in [0, run.hosts] (0 = default hosts/4), got %d", c.MaxHostsDown)
	}
	if c.CrashesPerWindow < 0 || c.CrashesPerWindow > 100 {
		return fmt.Errorf("spec: chaos.crashes_per_window must be in [0, 100] (0 = default 1), got %d", c.CrashesPerWindow)
	}
	if c.SpikeHosts < 0 || (hosts > 0 && c.SpikeHosts > hosts) {
		return fmt.Errorf("spec: chaos.spike_hosts must be in [0, run.hosts] (0 = default 1), got %d", c.SpikeHosts)
	}
	if sev := c.Severity.CPU; math.IsNaN(sev) || sev < 0 || sev > 10 {
		return fmt.Errorf("spec: chaos.severity_cpu must be in [0, 10], got %g", sev)
	}
	if sev := c.Severity.Mem; math.IsNaN(sev) || sev < 0 || sev > 10 {
		return fmt.Errorf("spec: chaos.severity_mem must be in [0, 10], got %g", sev)
	}
	if c.OpFailures < 0 || c.OpFailures > 100 {
		return fmt.Errorf("spec: chaos.op_failures must be in [0, 100] (0 = default 1), got %d", c.OpFailures)
	}
	return nil
}

func validateDrift(d *drift.Config) error {
	if math.IsNaN(d.Threshold) || d.Threshold < 0 || d.Threshold > 100 {
		return fmt.Errorf("spec: drift.threshold must be in [0, 100] (0 = default), got %g", d.Threshold)
	}
	if d.Consecutive < 0 || d.Consecutive > 1000 {
		return fmt.Errorf("spec: drift.consecutive must be in [0, 1000] (0 = default), got %d", d.Consecutive)
	}
	return nil
}

func (a *ArrivalSpec) validate(at string) error {
	switch a.Kind {
	case "static":
		if a.Rate < 0 {
			return fmt.Errorf("%s: arrival.rate must be >= 0 req/min, got %g", at, a.Rate)
		}
		if a.Base != 0 || a.Peak != 0 || a.PeriodMin != 0 || a.PhaseMin != 0 || len(a.Rates) != 0 || a.StepMin != 0 || a.TraceName != "" {
			return fmt.Errorf("%s: arrival kind \"static\" accepts only rate", at)
		}
	case "diurnal":
		if a.Base < 0 || a.Peak < 0 {
			return fmt.Errorf("%s: arrival.base and arrival.peak must be >= 0 req/min", at)
		}
		if !(a.PeriodMin > 0) {
			return fmt.Errorf("%s: arrival.period_min must be > 0 for kind \"diurnal\", got %g", at, a.PeriodMin)
		}
		if a.Rate != 0 || len(a.Rates) != 0 || a.StepMin != 0 || a.TraceName != "" {
			return fmt.Errorf("%s: arrival kind \"diurnal\" accepts only base, peak, period_min, phase_min", at)
		}
	case "trace":
		if len(a.Rates) == 0 {
			return fmt.Errorf("%s: arrival.rates must be a non-empty list for kind \"trace\"", at)
		}
		for i, r := range a.Rates {
			if r < 0 {
				return fmt.Errorf("%s: arrival.rates[%d] must be >= 0 req/min, got %g", at, i, r)
			}
		}
		if !(a.StepMin > 0) {
			return fmt.Errorf("%s: arrival.step_min must be > 0 for kind \"trace\", got %g", at, a.StepMin)
		}
		if a.Rate != 0 || a.Base != 0 || a.Peak != 0 || a.PeriodMin != 0 || a.PhaseMin != 0 {
			return fmt.Errorf("%s: arrival kind \"trace\" accepts only rates, step_min, name", at)
		}
	default:
		return fmt.Errorf("%s: arrival.kind %q unknown (want static, diurnal, or trace)", at, a.Kind)
	}
	return nil
}

func (p *Phase) validate(i int, durationMin float64, cohorts map[string]*Cohort) error {
	at := fmt.Sprintf("spec: phases[%d]", i)
	if p.Name != "" {
		if !nameOK(p.Name) {
			return fmt.Errorf("%s: name %q must use only letters, digits, '-', '_', '.'", at, p.Name)
		}
		at = fmt.Sprintf("spec: phase %q", p.Name)
	}
	if !phaseKinds[p.Kind] {
		return fmt.Errorf("%s: kind %q unknown (want %s)", at, p.Kind,
			strings.Join([]string{PhaseBaseline, PhaseFlashCrowd, PhaseDrain, PhaseFailover}, ", "))
	}
	if p.StartMin < 0 {
		return fmt.Errorf("%s: start_min must be >= 0, got %g", at, p.StartMin)
	}
	if !(p.DurationMin > 0) {
		return fmt.Errorf("%s: duration_min must be > 0, got %g", at, p.DurationMin)
	}
	if p.End() > durationMin {
		return fmt.Errorf("%s: ends at %g, past run.duration_min %g", at, p.End(), durationMin)
	}
	if p.RampMin < 0 || 2*p.RampMin > p.DurationMin {
		return fmt.Errorf("%s: ramp_min must satisfy 0 <= 2*ramp_min <= duration_min, got %g", at, p.RampMin)
	}
	for _, name := range p.Cohorts {
		if _, ok := cohorts[name]; !ok {
			return fmt.Errorf("%s: cohorts entry %q does not name a cohort", at, name)
		}
	}
	switch p.Kind {
	case PhaseBaseline, PhaseFlashCrowd:
		if !p.factorSet || !(p.Factor > 0) {
			return fmt.Errorf("%s: factor is required and must be > 0 for kind %q", at, p.Kind)
		}
		if p.Factor > 1000 {
			return fmt.Errorf("%s: factor must be <= 1000, got %g", at, p.Factor)
		}
	case PhaseDrain:
		if p.factorSet && (p.Factor < 0 || p.Factor >= 1) {
			return fmt.Errorf("%s: drain factor is the residual load level and must be in [0, 1), got %g", at, p.Factor)
		}
	case PhaseFailover:
		if p.factorSet {
			return fmt.Errorf("%s: factor does not apply to failover (use fraction)", at)
		}
		if len(p.Cohorts) != 0 {
			return fmt.Errorf("%s: failover uses from/to, not a cohorts list", at)
		}
		if _, ok := cohorts[p.From]; !ok {
			return fmt.Errorf("%s: from %q does not name a cohort", at, p.From)
		}
		if _, ok := cohorts[p.To]; !ok {
			return fmt.Errorf("%s: to %q does not name a cohort", at, p.To)
		}
		if p.From == p.To {
			return fmt.Errorf("%s: from and to must name different cohorts", at)
		}
		if !(p.Fraction > 0) || p.Fraction > 1 {
			return fmt.Errorf("%s: fraction must be in (0, 1], got %g", at, p.Fraction)
		}
	}
	if p.Kind != PhaseFailover && (p.From != "" || p.To != "" || p.Fraction != 0) {
		return fmt.Errorf("%s: from/to/fraction only apply to kind %q", at, PhaseFailover)
	}
	return nil
}
