package spec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/multiplex"
	"erms/internal/persist"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// Scenario is a compiled spec: the application plus everything the windowed
// runner needs, all in simulated time (spec time divided by TimeScale).
// Compilation is deterministic — the same spec always yields the same
// scenario, and a cohort untouched by phases or time scaling compiles to the
// exact workload.Pattern value the equivalent code-built scenario would use.
type Scenario struct {
	Spec *Spec
	App  *apps.App
	// Streams has one entry per cohort, in spec order, with patterns
	// evaluated in simulated minutes over the full horizon.
	Streams []sim.Stream
	// DurationMin, WarmupMin, WindowMin are in simulated minutes.
	DurationMin float64
	WarmupMin   float64
	WindowMin   float64
	// Windows is the planning-window count: ceil(DurationMin / WindowMin).
	Windows int
	Hosts   int
	Scheme  multiplex.Scheme
	// Resilience is the spec's resilience block, nil when the spec has none
	// (the zero sim.Resilience).
	Resilience *sim.Resilience
	Seed       uint64
}

// Compile validates the spec against the application it selects and returns
// the runnable scenario.
func (s *Spec) Compile() (*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	app, err := s.App.Build()
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool)
	for _, svc := range app.Services() {
		known[svc] = true
	}
	sc := &Scenario{
		Spec:        s,
		App:         app,
		DurationMin: s.Run.DurationMin / s.TimeScale,
		WarmupMin:   s.Run.WarmupMin / s.TimeScale,
		WindowMin:   s.Run.WindowMin / s.TimeScale,
		Hosts:       s.Run.Hosts,
		Resilience:  s.Resilience,
		Seed:        s.Seed,
	}
	sc.Windows = int(math.Ceil(sc.DurationMin/sc.WindowMin - 1e-9))
	if sc.Windows < 1 {
		sc.Windows = 1
	}
	switch s.Run.Scheme {
	case "fcfs":
		sc.Scheme = multiplex.SchemeFCFS
	case "nonshared":
		sc.Scheme = multiplex.SchemeNonShared
	default:
		sc.Scheme = multiplex.SchemePriority
	}
	for _, svc := range sortutil.Keys(s.App.SLAs) {
		if !known[svc] {
			return nil, fmt.Errorf("spec: app.slas: service %q not in app %q (services: %v)",
				svc, app.Name, app.Services())
		}
		sla := app.SLAs[svc]
		sla.Service = svc
		sla.Threshold = s.App.SLAs[svc]
		if sla.Percentile == 0 {
			sla.Percentile = 0.95
		}
		app.SLAs[svc] = sla
	}
	byName := make(map[string]*Cohort, len(s.Cohorts))
	for i := range s.Cohorts {
		byName[s.Cohorts[i].Name] = &s.Cohorts[i]
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if !known[c.Service] {
			return nil, fmt.Errorf("spec: cohort %q: service %q not in app %q (services: %v)",
				c.Name, c.Service, app.Name, app.Services())
		}
		stream := sim.Stream{
			Cohort:  c.Name,
			Service: c.Service,
			Tier:    c.Tier,
			Pattern: s.compilePattern(c, byName),
		}
		if c.SLAMs > 0 {
			stream.SLA = &workload.SLA{Service: c.Service, Threshold: c.SLAMs, Percentile: 0.95}
		}
		sc.Streams = append(sc.Streams, stream)
	}
	return sc, nil
}

// Build constructs the selected application topology.
func (a *AppSpec) Build() (*apps.App, error) {
	switch a.Kind {
	case "hotel":
		return apps.HotelReservation(), nil
	case "social":
		return apps.SocialNetwork(), nil
	case "media":
		return apps.MediaService(), nil
	case "alibaba":
		return apps.Alibaba(apps.AlibabaConfig{Seed: a.Seed, Services: a.Services}), nil
	case "scale":
		return apps.ScaleTopology(a.ScaleConfig), nil
	case "file":
		path := a.Path
		if !filepath.IsAbs(path) {
			path = filepath.Join(a.dir, path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("spec: app.path: %w", err)
		}
		defer f.Close()
		app, err := persist.LoadApp(f)
		if err != nil {
			return nil, fmt.Errorf("spec: app.path %s: %w", path, err)
		}
		return app, nil
	default:
		return nil, fmt.Errorf("spec: app.kind %q unknown", a.Kind)
	}
}

// ChaosSchedule generates the fault schedule the spec's chaos block declares,
// sized to the compiled scenario: window count and length, host count, and
// crash candidates all come from the scenario, so the same chaos block
// stresses any topology. It returns nil when the spec declares no chaos. The
// optional windows override extends the schedule past the spec horizon (the
// operator loop can run longer than run.duration_min); pass 0 to keep the
// scenario's window count.
func (sc *Scenario) ChaosSchedule(windows int) (*chaos.Schedule, error) {
	if sc.Spec.Chaos == nil {
		return nil, nil
	}
	if windows <= 0 {
		windows = sc.Windows
	}
	cfg := *sc.Spec.Chaos
	cfg.Windows, cfg.WindowMin, cfg.Hosts, cfg.Microservices = windows, sc.WindowMin, sc.Hosts, sc.App.Microservices()
	sched, err := chaos.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("spec: chaos schedule: %w", err)
	}
	return sched, nil
}

// basePattern is the cohort's arrival pattern in spec time.
func (a *ArrivalSpec) basePattern() workload.Pattern {
	switch a.Kind {
	case "static":
		return workload.Static{Rate: a.Rate}
	case "diurnal":
		return workload.Diurnal{Base: a.Base, Peak: a.Peak, PeriodMin: a.PeriodMin, PhaseMin: a.PhaseMin}
	default: // "trace"; Validate rejects everything else
		rates := make([]float64, len(a.Rates))
		copy(rates, a.Rates)
		return workload.Trace{Rates: rates, StepMin: a.StepMin, Name: a.TraceName}
	}
}

// compilePattern builds the cohort's simulated-time pattern: the base
// arrival pattern under the spec's phase envelope. When nothing modifies the
// cohort (no phases touch it and TimeScale is 1), the base pattern value is
// returned unwrapped, so spec-built and code-built scenarios are
// byte-identical.
func (s *Spec) compilePattern(c *Cohort, byName map[string]*Cohort) workload.Pattern {
	base := c.Arrival.basePattern()
	var mods []phaseMod
	var adds []phaseAdd
	for i := range s.Phases {
		p := &s.Phases[i]
		env := trapezoid{start: p.StartMin, dur: p.DurationMin, ramp: p.RampMin}
		switch p.Kind {
		case PhaseBaseline, PhaseFlashCrowd:
			if p.applies(c.Name) {
				mods = append(mods, phaseMod{env: env, factor: p.Factor})
			}
		case PhaseDrain:
			if p.applies(c.Name) {
				mods = append(mods, phaseMod{env: env, factor: p.Factor})
			}
		case PhaseFailover:
			if p.From == c.Name {
				mods = append(mods, phaseMod{env: env, factor: 1 - p.Fraction})
			}
			if p.To == c.Name {
				adds = append(adds, phaseAdd{env: env, fraction: p.Fraction, src: byName[p.From].Arrival.basePattern()})
			}
		}
	}
	if len(mods) == 0 && len(adds) == 0 && s.TimeScale == 1 {
		return base
	}
	return phased{base: base, mods: mods, adds: adds, scale: s.TimeScale}
}

// applies reports whether the phase affects the named cohort.
func (p *Phase) applies(cohort string) bool {
	if len(p.Cohorts) == 0 {
		return true
	}
	for _, n := range p.Cohorts {
		if n == cohort {
			return true
		}
	}
	return false
}

// trapezoid is a 0→1→0 activation envelope: linear ramp over ramp minutes
// into a hold at 1, then a symmetric ramp out.
type trapezoid struct{ start, dur, ramp float64 }

func (z trapezoid) level(t float64) float64 {
	if t <= z.start || t >= z.start+z.dur {
		return 0
	}
	if z.ramp > 0 {
		if dt := t - z.start; dt < z.ramp {
			return dt / z.ramp
		}
		if rem := z.start + z.dur - t; rem < z.ramp {
			return rem / z.ramp
		}
	}
	return 1
}

// phaseMod multiplies the rate by 1 + (factor-1)·level(t): flash crowds have
// factor > 1, drains have factor in [0,1), a failover source has
// factor = 1 - fraction.
type phaseMod struct {
	env    trapezoid
	factor float64
}

// phaseAdd layers a failover in-shift onto the target cohort: fraction ·
// level(t) of the source cohort's base load.
type phaseAdd struct {
	env      trapezoid
	fraction float64
	src      workload.Pattern
}

// phased evaluates the base pattern under the phase envelope. Times are
// simulated minutes; scale maps them back to spec minutes (compression keeps
// the load level — req/min — unchanged and shortens the run).
type phased struct {
	base  workload.Pattern
	mods  []phaseMod
	adds  []phaseAdd
	scale float64
}

// RateAt evaluates the composed rate at simulated minute t.
func (p phased) RateAt(t float64) float64 {
	spec := t * p.scale
	r := p.base.RateAt(spec)
	for _, m := range p.mods {
		r *= 1 + (m.factor-1)*m.env.level(spec)
	}
	for _, a := range p.adds {
		r += a.fraction * a.env.level(spec) * a.src.RateAt(spec)
	}
	if r < 0 {
		return 0
	}
	return r
}

func (p phased) String() string {
	return fmt.Sprintf("Phased(%s, %d mods, %d shifts, x%g)", p.base.String(), len(p.mods), len(p.adds), p.scale)
}

// offsetPattern shifts a pattern for per-window evaluation: the runtime
// evaluates window-local minutes, the scenario pattern spans the horizon.
type offsetPattern struct {
	inner workload.Pattern
	off   float64
}

func (o offsetPattern) RateAt(t float64) float64 { return o.inner.RateAt(t + o.off) }

func (o offsetPattern) String() string {
	return fmt.Sprintf("Offset(%s, +%gmin)", o.inner.String(), o.off)
}

// WindowStreams returns the scenario streams shifted to window w's local
// time. Window 0 returns the streams unchanged.
func (sc *Scenario) WindowStreams(w int) []sim.Stream {
	off := float64(w) * sc.WindowMin
	if off == 0 {
		return sc.Streams
	}
	out := make([]sim.Stream, len(sc.Streams))
	copy(out, sc.Streams)
	for i := range out {
		out[i].Pattern = offsetPattern{inner: sc.Streams[i].Pattern, off: off}
	}
	return out
}

// WindowBounds returns window w's [start, end) in simulated minutes; the
// last window is clipped to the horizon.
func (sc *Scenario) WindowBounds(w int) (start, end float64) {
	start = float64(w) * sc.WindowMin
	end = start + sc.WindowMin
	if end > sc.DurationMin {
		end = sc.DurationMin
	}
	return start, end
}

// OfferedRates returns the per-service mean offered load (req/min) over
// window w, sampled once per simulated minute exactly like the arrival
// generator. Every app service is present and floored at 1 req/min — the
// planner requires a rate per service, and services without a cohort carry a
// background trickle rather than disappearing from the plan.
func (sc *Scenario) OfferedRates(w int) map[string]float64 {
	start, end := sc.WindowBounds(w)
	rates := make(map[string]float64)
	for _, svc := range sc.App.Services() {
		rates[svc] = 0
	}
	for _, st := range sc.Streams {
		n, sum := 0, 0.0
		for m := start; m < end-1e-9; m++ {
			sum += st.Pattern.RateAt(m)
			n++
		}
		if n > 0 {
			rates[st.Service] += sum / float64(n)
		}
	}
	for svc, r := range rates {
		if r < 1 {
			rates[svc] = 1
		}
	}
	return rates
}

// OfferedByTier returns the per-tier offered load (req/min) at the given
// simulated minute.
func (sc *Scenario) OfferedByTier(minute float64) [workload.NumTiers]float64 {
	var out [workload.NumTiers]float64
	for _, st := range sc.Streams {
		out[st.Tier] += st.Pattern.RateAt(minute)
	}
	return out
}
