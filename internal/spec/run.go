package spec

import (
	"fmt"
	"io"
	"strconv"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/kube"
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/workload"
)

// TierAgg aggregates request outcomes for one SLO tier.
type TierAgg struct {
	Issued    int
	Completed int // Good + Slow
	Good      int
	Slow      int
	Errors    int
	Shed      int // subset of Errors rejected by admission control
}

func (a *TierAgg) add(issued, completed, good, slow, errors, shed int) {
	a.Issued += issued
	a.Completed += completed
	a.Good += good
	a.Slow += slow
	a.Errors += errors
	a.Shed += shed
}

// ViolationRate is the fraction of completed-or-failed requests that missed
// their SLA (slow completions plus errors).
func (a TierAgg) ViolationRate() float64 {
	n := a.Completed + a.Errors
	if n == 0 {
		return 0
	}
	return float64(a.Slow+a.Errors) / float64(n)
}

// WindowReport summarizes one planning window.
type WindowReport struct {
	Index      int
	StartMin   float64 // simulated minutes
	EndMin     float64
	Containers int
	// PlannedRates is the per-service offered load the window was planned
	// against.
	PlannedRates map[string]float64
	PerTier      [workload.NumTiers]TierAgg
}

// TimelinePoint is one (minute, tier) cell of the run timeline. Minutes
// inside the warmup are not reported.
type TimelinePoint struct {
	// Minute is the global simulated minute; SpecMin the corresponding
	// spec-time minute (Minute × TimeScale).
	Minute  int
	SpecMin float64
	// Tier is the SLO tier; All rows aggregate every tier.
	Tier workload.Tier
	All  bool
	// Offered is the pattern-level offered load (req/min) at the minute.
	Offered                                     float64
	Issued, Completed, Good, Slow, Errors, Shed int
	// Containers is the tier's share of the window's deployed containers,
	// attributed proportionally to offered load (the whole deployment for
	// All rows).
	Containers float64
}

// RunResult is a finished spec run.
type RunResult struct {
	Scenario *Scenario
	Windows  []WindowReport
	Timeline []TimelinePoint
	// Totals aggregates outcomes per tier across every reported minute.
	Totals [workload.NumTiers]TierAgg
}

// TiersPresent lists the tiers with at least one cohort, in tier order.
func (sc *Scenario) TiersPresent() []workload.Tier {
	var present [workload.NumTiers]bool
	for _, st := range sc.Streams {
		present[st.Tier] = true
	}
	out := make([]workload.Tier, 0, workload.NumTiers)
	for _, t := range workload.Tiers() {
		if present[t] {
			out = append(out, t)
		}
	}
	return out
}

// NewController builds the controller every driver of the scenario runs —
// batch run, operator fleet, operator canary: app on a fresh cluster of
// hosts paper-spec machines with interference-aware provisioning, under the
// scenario's scheme, resilience and drift settings, with analytic models
// installed. app and hosts are parameters because the canary manages a
// slice of sc.App on a slice of sc.Hosts.
func (sc *Scenario) NewController(app *apps.App, hosts int, rec *obs.Recorder) (*core.Controller, error) {
	opts := []core.Option{
		core.WithScheme(sc.Scheme),
		core.WithScheduler(&provision.InterferenceAware{Groups: 4}),
		core.WithResilience(sc.Resilience),
		core.WithObservability(rec),
	}
	if cfg, ok := sc.DriftConfig(); ok {
		opts = append(opts, core.WithDriftDetection(cfg))
	}
	ctrl, err := core.New(app, kube.New(cluster.New(hosts, cluster.PaperHost), nil), opts...)
	if err != nil {
		return nil, err
	}
	ctrl.UseAnalyticModels()
	return ctrl, nil
}

// Run drives the controller over the scenario's planning windows: each
// window is planned from its offered load, applied, and simulated with the
// cohort streams, and the per-minute stream outcomes are stitched into the
// timeline. The run is deterministic in the spec: same spec, same seed,
// byte-identical result at any worker count.
func (sc *Scenario) Run(rec *obs.Recorder) (*RunResult, error) {
	if sc.Chaos != nil {
		return nil, fmt.Errorf("spec: %q declares a chaos block, which only the operator loop injects; run it with `ermsctl operate -spec ...` (batch run would silently skip the fault timeline)", sc.Spec.Name)
	}
	ctrl, err := sc.NewController(sc.App, sc.Hosts, rec)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Scenario: sc}
	tiers := sc.TiersPresent()
	for w := 0; w < sc.Windows; w++ {
		start, end := sc.WindowBounds(w)
		dur := end - start
		if dur <= 0 {
			break
		}
		warm := 0.0
		if w == 0 {
			warm = sc.WarmupMin
			if warm > dur/2 {
				warm = dur / 2
			}
		}
		// Reactive planning, like the paper's workload-driven scaling loop:
		// window w is planned from the previous window's offered load (the
		// controller cannot see a flash crowd coming), so unforecast surges
		// overload the deployment until the next re-plan catches up.
		rates := sc.OfferedRates(w)
		planRates := rates
		if w > 0 {
			planRates = sc.OfferedRates(w - 1)
		}
		plan, err := ctrl.Plan(planRates)
		if err != nil {
			return nil, fmt.Errorf("spec: window %d plan: %w", w, err)
		}
		if err := ctrl.Apply(plan); err != nil {
			return nil, fmt.Errorf("spec: window %d apply: %w", w, err)
		}
		seedW := sc.Seed + uint64(w)*1000003 + 1
		ev, err := ctrl.EvaluateDeployed(plan, rates, dur, warm, seedW, core.EvalOpts{Streams: sc.WindowStreams(w)})
		if err != nil {
			return nil, fmt.Errorf("spec: window %d evaluate: %w", w, err)
		}
		rep := WindowReport{
			Index:        w,
			StartMin:     start,
			EndMin:       end,
			Containers:   ev.TotalContainers,
			PlannedRates: planRates,
		}
		// Fold the window's per-stream minutes into per-(minute, tier)
		// cells. StreamMinutes is in (minute, stream) order and skips
		// warmup minutes, so the fold is deterministic.
		byMinute := make(map[int]*[workload.NumTiers]TierAgg)
		minMinute, maxMinute := -1, -1
		for _, sm := range ev.Sim.StreamMinutes {
			tier := sc.Streams[sm.Stream].Tier
			cell, ok := byMinute[sm.Minute]
			if !ok {
				cell = &[workload.NumTiers]TierAgg{}
				byMinute[sm.Minute] = cell
				if minMinute < 0 || sm.Minute < minMinute {
					minMinute = sm.Minute
				}
				if sm.Minute > maxMinute {
					maxMinute = sm.Minute
				}
			}
			cell[tier].add(sm.Issued, sm.Completed, sm.Good, sm.Slow, sm.Errors, sm.Shed)
			rep.PerTier[tier].add(sm.Issued, sm.Completed, sm.Good, sm.Slow, sm.Errors, sm.Shed)
			res.Totals[tier].add(sm.Issued, sm.Completed, sm.Good, sm.Slow, sm.Errors, sm.Shed)
		}
		base := int(start + 0.5)
		for m := minMinute; m >= 0 && m <= maxMinute; m++ {
			cell, ok := byMinute[m]
			if !ok {
				continue
			}
			global := base + m
			offered := sc.OfferedByTier(float64(global))
			offeredAll := 0.0
			for _, t := range tiers {
				offeredAll += offered[t]
			}
			var all TierAgg
			for _, t := range tiers {
				a := cell[t]
				share := 0.0
				if offeredAll > 0 {
					share = offered[t] / offeredAll
				}
				res.Timeline = append(res.Timeline, TimelinePoint{
					Minute: global, SpecMin: float64(global) * sc.Spec.TimeScale,
					Tier: t, Offered: offered[t],
					Issued: a.Issued, Completed: a.Completed, Good: a.Good,
					Slow: a.Slow, Errors: a.Errors, Shed: a.Shed,
					Containers: float64(ev.TotalContainers) * share,
				})
				all.add(a.Issued, a.Completed, a.Good, a.Slow, a.Errors, a.Shed)
			}
			res.Timeline = append(res.Timeline, TimelinePoint{
				Minute: global, SpecMin: float64(global) * sc.Spec.TimeScale,
				All: true, Offered: offeredAll,
				Issued: all.Issued, Completed: all.Completed, Good: all.Good,
				Slow: all.Slow, Errors: all.Errors, Shed: all.Shed,
				Containers: float64(ev.TotalContainers),
			})
		}
		res.Windows = append(res.Windows, rep)
	}
	return res, nil
}

// timelineHeader is the timeline CSV column list.
const timelineHeader = "minute,spec_min,tier,offered_req_min,issued,completed,good,slow,errors,shed,violation_rate,containers"

// WriteTimelineCSV writes the per-minute, per-tier timeline. Rows are
// ordered by minute, then tiers in severity order, then an "all" aggregate
// row; numbers use the shortest exact decimal formatting, so equal runs
// produce byte-identical files.
func (r *RunResult) WriteTimelineCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, timelineHeader); err != nil {
		return err
	}
	for _, p := range r.Timeline {
		tier := "all"
		if !p.All {
			tier = p.Tier.String()
		}
		viol := 0.0
		if n := p.Completed + p.Errors; n > 0 {
			viol = float64(p.Slow+p.Errors) / float64(n)
		}
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%d,%d,%d,%s,%s\n",
			p.Minute, fnum(p.SpecMin), tier, fnum(p.Offered),
			p.Issued, p.Completed, p.Good, p.Slow, p.Errors, p.Shed,
			fnum(viol), fnum(p.Containers))
		if err != nil {
			return err
		}
	}
	return nil
}

// fnum formats a float with the shortest representation that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Report renders a per-tier outcome summary for the CLI.
func (r *RunResult) Report(w io.Writer) {
	sc := r.Scenario
	fmt.Fprintf(w, "spec %q: app %s, %d cohorts, %d windows x %s min (time_scale %g)\n",
		sc.Spec.Name, sc.App.Name, len(sc.Streams), len(r.Windows), fnum(sc.WindowMin), sc.Spec.TimeScale)
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %8s %10s\n",
		"tier", "issued", "completed", "slow", "errors", "shed", "viol-rate")
	for _, t := range sc.TiersPresent() {
		a := r.Totals[t]
		fmt.Fprintf(w, "%-10s %10d %10d %8d %8d %8d %9.2f%%\n",
			t.String(), a.Issued, a.Completed, a.Slow, a.Errors, a.Shed, 100*a.ViolationRate())
	}
}
