package spec

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/drift"
	"erms/internal/kube"
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/sim"
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

func (a *TierAgg) add(b TierAgg) {
	a.Issued += b.Issued
	a.Completed += b.Completed
	a.Good += b.Good
	a.Slow += b.Slow
	a.Errors += b.Errors
	a.Shed += b.Shed
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
	// WindowReport is the control loop's own report of the window: the rates
	// it was planned against (Rates), containers, repairs, retries, degraded /
	// outage / obs-gap flags, per-service violations, model swaps.
	*core.WindowReport
	StartMin float64 // simulated minutes
	EndMin   float64
	// Faults summarizes the chaos faults scheduled for the window ("-" for
	// none or for a spec without a chaos block).
	Faults  string
	PerTier [workload.NumTiers]TierAgg
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
	Offered float64
	// TierAgg holds the minute's request outcomes.
	TierAgg
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
	// Drift is the drift loop's end-of-run summary; nil unless the spec has a
	// drift block.
	Drift *drift.Stats
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

// Loop is the control loop every driver of a scenario steps — batch run,
// operator fleet, operator canary: a core.Reconciler over the scenario's
// controller plus, when a fault schedule is bound, the injector enacting it.
type Loop struct {
	Rec *core.Reconciler
	// Inj is nil when no fault schedule is bound.
	Inj *chaos.Injector
}

// NewLoop builds the scenario's control loop: app on a fresh cluster of
// hosts paper-spec machines with interference-aware provisioning, under the
// scenario's scheme, resilience and drift settings, with analytic models
// installed; scenario-length windows evaluated on the cohort streams that
// streams returns; and faults (nil for none; see ChaosSchedule) injected
// into both the loop and the substrate. app and hosts are parameters because
// the canary manages a slice of sc.App on a slice of sc.Hosts.
func (sc *Scenario) NewLoop(app *apps.App, hosts int, rec *obs.Recorder,
	streams func(window int) []sim.Stream, faults *chaos.Schedule) (*Loop, error) {
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
	l := &Loop{Rec: core.NewReconciler(ctrl)}
	l.Rec.WindowMin = sc.WindowMin
	l.Rec.StreamsFor = streams
	if faults != nil {
		l.Inj = chaos.NewInjector(faults, ctrl.Orch)
		l.Inj.SetRecorder(rec)
		l.Rec.Chaos = l.Inj
	}
	return l, nil
}

// Step runs the loop's next window at the given observed rates inside the
// injector's BeginWindow/EndWindow bracket.
func (l *Loop) Step(rates map[string]float64, seed uint64) (rep *core.WindowReport, err error) {
	err = l.Inj.Window(l.Rec.Window(), func() (err error) {
		rep, err = l.Rec.Step(rates, seed)
		return err
	})
	return rep, err
}

// Run drives the scenario's control loop over its planning windows and
// stitches the per-minute stream outcomes into the timeline. It is the same
// loop the operator runs — repair, retries, degraded mode, the chaos block's
// fault schedule, the drift block's detector — in batch geometry: window w
// is planned from window w−1's offered load, only window 0 warms up, the
// last window is clipped to the horizon, and plans apply without down-scale
// slack. The run is deterministic in the spec: same spec, same seed,
// byte-identical result at any worker count.
func (sc *Scenario) Run(rec *obs.Recorder) (*RunResult, error) {
	faults, err := sc.ChaosSchedule(0)
	if err != nil {
		return nil, err
	}
	loop, err := sc.NewLoop(sc.App, sc.Hosts, rec, sc.WindowStreams, faults)
	if err != nil {
		return nil, err
	}
	loop.Rec.DownscaleSlack = 0
	res := &RunResult{Scenario: sc}
	tiers := sc.TiersPresent()
	for w := 0; w < sc.Windows; w++ {
		start, end := sc.WindowBounds(w)
		dur := end - start
		if dur <= 0 {
			break
		}
		loop.Rec.WindowMin, loop.Rec.WarmupMin = dur, 0
		if w == 0 {
			loop.Rec.WarmupMin = math.Min(sc.WarmupMin, dur/2)
		}
		// Reactive planning, like the paper's workload-driven scaling loop:
		// window w is planned from the previous window's offered load (the
		// controller cannot see a flash crowd coming), so unforecast surges
		// overload the deployment until the next re-plan catches up. The
		// window is still evaluated on its own load: every cohort is a
		// stream, and services without one idle at the same 1 req/min floor
		// in every window's rates.
		ctl, err := loop.Step(sc.OfferedRates(max(w-1, 0)), sc.Seed+uint64(w)*1000003+1)
		if err != nil {
			return nil, fmt.Errorf("spec: window %d: %w", w, err)
		}
		rep := WindowReport{WindowReport: ctl, StartMin: start, EndMin: end, Faults: faults.Summary(w)}
		// Fold the window's per-stream minutes into per-(minute, tier)
		// cells. StreamMinutes is in (minute, stream) order and skips
		// warmup minutes, so each run of equal minutes is one timeline row
		// group.
		base := int(start + 0.5)
		for rows := ctl.StreamMinutes; len(rows) > 0; {
			var cell [workload.NumTiers]TierAgg
			minute := rows[0].Minute
			for ; len(rows) > 0 && rows[0].Minute == minute; rows = rows[1:] {
				sm := rows[0]
				cell[sc.Streams[sm.Stream].Tier].add(TierAgg{Issued: sm.Issued, Completed: sm.Completed,
					Good: sm.Good, Slow: sm.Slow, Errors: sm.Errors, Shed: sm.Shed})
			}
			global := base + minute
			offered := sc.OfferedByTier(float64(global))
			offeredAll := 0.0
			for _, t := range tiers {
				offeredAll += offered[t]
			}
			all := TimelinePoint{Minute: global, SpecMin: float64(global) * sc.Spec.TimeScale,
				All: true, Offered: offeredAll, Containers: float64(ctl.Containers)}
			for _, t := range tiers {
				p := TimelinePoint{Minute: all.Minute, SpecMin: all.SpecMin, Tier: t, Offered: offered[t], TierAgg: cell[t]}
				if offeredAll > 0 {
					p.Containers = all.Containers * (offered[t] / offeredAll)
				}
				res.Timeline = append(res.Timeline, p)
				rep.PerTier[t].add(cell[t])
				res.Totals[t].add(cell[t])
				all.add(cell[t])
			}
			res.Timeline = append(res.Timeline, all)
		}
		res.Windows = append(res.Windows, rep)
	}
	if d := loop.Rec.C.Drift; d != nil {
		st := d.Stats()
		res.Drift = &st
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
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%d,%d,%d,%s,%s\n",
			p.Minute, fnum(p.SpecMin), tier, fnum(p.Offered),
			p.Issued, p.Completed, p.Good, p.Slow, p.Errors, p.Shed,
			fnum(p.ViolationRate()), fnum(p.Containers))
		if err != nil {
			return err
		}
	}
	return nil
}

// fnum formats a float with the shortest representation that round-trips.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Report renders the run for the CLI: the per-tier outcome summary, then the
// control loop's per-window table — faults scheduled, containers deployed,
// containers repaired, retries, the worst service's violation rate, and the
// degraded / outage / obs-gap / swapped flags — and, with a drift block, the
// drift loop's summary.
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
	fmt.Fprintf(w, "\n%-4s %-28s %10s %8s %7s %7s  %s\n",
		"win", "faults", "containers", "repaired", "retries", "viol", "flags")
	for _, rep := range r.Windows {
		worst := 0.0
		for _, v := range rep.Violations {
			worst = math.Max(worst, v)
		}
		var flags []string
		if rep.Degraded {
			flags = append(flags, "degraded")
		}
		if rep.Outage {
			flags = append(flags, "outage")
		}
		if rep.ObsGap {
			flags = append(flags, "obs-gap")
		}
		if rep.ModelSwaps > 0 {
			flags = append(flags, fmt.Sprintf("swapped:%d", rep.ModelSwaps))
		}
		fmt.Fprintf(w, "%-4d %-28s %10d %8d %7d %7.3f  %s\n",
			rep.Window, rep.Faults, rep.Containers, rep.Repaired, rep.Retries, worst, strings.Join(flags, ","))
	}
	if st := r.Drift; st != nil {
		fmt.Fprintf(w, "\ndrift loop: %d windows scored, %d detections, %d swaps (%d segmented re-fits, %d recalibrations), max score %.2f\n",
			st.Windows, st.Detections, st.Swaps, st.Refits, st.Fallbacks, st.MaxScore)
	}
}
