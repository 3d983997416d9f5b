package main

import (
	"fmt"
	"math"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/drift"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/provision"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// warmupWindows is how many windows every set-up runs before the timed ones:
// template compile and the initial deployment happen in the first, planner
// fingerprint seeding in the second. They are charged to setup_s.
const warmupWindows = 2

// spec freezes one workload. Later changes compare two commits on identical
// specs, so the numbers here are part of the benchmark's definition; the
// smoke test is the only caller that shrinks them.
type spec struct {
	Name string
	Why  string
	// Cycle is the number of windows in one pass over the load pattern: window
	// w+Cycle has the rates, streams and faults of window w. A run times whole
	// cycles only, so every run covers the same mix of windows.
	Cycle int
	// SetupReps is how many times a run sets the workload up; setup_s is the
	// median and the last instance runs the timed windows.
	SetupReps int
	// Hosts is the cluster size (cluster.PaperHost each).
	Hosts int
	// Scale is the ScaleTopology shape; the zero value means a paper app.
	Scale apps.ScaleConfig
	// WindowMin / WarmupMin are the simulated window geometry; zero keeps the
	// reconciler's defaults.
	WindowMin, WarmupMin float64
	// Rate is the request rate per service in req/min: the trough on
	// social-diurnal, the mean on hotel-chaos, the base on the scale
	// topologies. Peak is social-diurnal's crest.
	Rate, Peak float64
	// Moves is the per-window budget of provision.Rebalance; 0 disables it.
	Moves int
	// Simulates is false for the control-plane-only workload.
	Simulates bool
	// Engines makes the traced run's probe window also time the partitioned
	// and the hybrid simulator on the final state.
	Engines bool

	build func(s spec, seed uint64, rec *obs.Recorder, tr *tracer) (*loop, error)
}

// specs are the four workloads, in reporting order.
var specs = []spec{
	{
		Name:      "social-diurnal",
		Why:       "exact simulator request path does ~100% of the window; planner, kube and provision are ~0",
		Cycle:     4,
		SetupReps: 3,
		Hosts:     20,
		WindowMin: 1.0, WarmupMin: 0.2,
		Rate: 10_000, Peak: 40_000,
		Simulates: true,
		build:     buildSocialDiurnal,
	},
	{
		Name:      "hotel-chaos",
		Why:       "same sim, kube and core layers on their fallible paths: retries, crashes, shedding, repair, drift",
		Cycle:     10,
		SetupReps: 3,
		Hosts:     20,
		WindowMin: 2.0, WarmupMin: 0.3,
		Rate:      12_000,
		Moves:     4,
		Simulates: true,
		build:     buildHotelChaos,
	},
	{
		Name:  "scale1k-control",
		Why:   "1000 services, no simulation: multiplex, scaling, kube, provision and cluster do all the work",
		Cycle: 3,
		// One set-up costs two windows' worth of a 1000-service cluster; two
		// repetitions are what the run-time cap affords.
		SetupReps: 2,
		Hosts:     2000,
		Scale:     apps.ScaleConfig{Seed: 7, Services: 1000, MicroservicesPerService: 50, SharingDegree: 10},
		Rate:      10_000,
		Moves:     8,
		build:     buildScaleControl,
	},
	{
		Name:      "scale100-window",
		Why:       "mid-scale full window: simulator set-up, event run, trace coordinator and control plane in one number",
		Cycle:     5,
		SetupReps: 3,
		Hosts:     200,
		Scale:     apps.ScaleConfig{Seed: 7, Services: 100, MicroservicesPerService: 50, SharingDegree: 10},
		Rate:      100,
		Simulates: true,
		Engines:   true,
		build:     buildScaleWindow,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Frozen load parameters that no caller shrinks.
const (
	socialTraceMin = 96  // minutes of Alibaba-like trace one cycle spans
	hotelSwing     = 0.5 // rate = Rate·(1 ± hotelSwing·sin)
	hotelBatchPart = 0.3 // share of search traffic in the batch cohort
	scaleHotFactor = 1.6 // rate multiplier of the hot services
	scaleHotShare  = 0.1 // share of services that are hot in a window
	// chaosHorizon is how many windows the fault schedule covers; no run
	// gets near it.
	chaosHorizon = 1 << 12
)

// Frozen seeds of the input shapes. A run's --seed never changes what load
// and which faults a cycle holds, only the window the cycle starts at, every
// simulation seed and which services of a scale topology are hot: runs on
// different seeds do the same amount of work, so their metrics compare.
var (
	socialTraceSeeds = []uint64{11, 12, 13} // one per service, in app order
	hotelChaosSeed   = uint64(26)
)

// hotelResilience is the data-plane fault model of hotel-chaos. The request
// deadline is 3x the service SLA.
var hotelResilience = sim.Resilience{
	TimeoutSLAMultiple: 3,
	AttemptTimeoutMs:   25,
	MaxAttempts:        4,
	RetryBudget:        0.1,
	RetryBurst:         10,
	BreakerFailureRate: 0.5,
	Shed:               true,
}

// windowOut is what one control window hands back to the harness.
type windowOut struct {
	// Report is nil on the control-plane-only workload.
	Report *core.WindowReport
	// Plan is the plan the window applied (control-plane-only workload).
	Plan *multiplex.Plan
	// Offered is the request count of the load the window covered: the
	// simulated arrivals where the window simulates, one minute of the planned
	// rates where it only plans.
	Offered float64
	// Faults is the number of chaos faults scheduled for the window.
	Faults int
	// Moves is what provision.Rebalance migrated, where the harness calls it.
	Moves int
}

// loop is one set-up instance of a workload: a controller on its cluster and
// a function running the next control window.
type loop struct {
	ctrl *core.Controller
	rec  *core.Reconciler // nil on the control-plane-only workload
	// window runs control window w (0-based, warm-ups included). tr is nil on
	// untraced runs.
	window func(w int, tr *tracer) (windowOut, error)
	// rates returns the per-service rates of window w.
	rates func(w int) map[string]float64
	// streams returns window w's cohort streams, nil without cohorts.
	streams func(w int) []sim.Stream
	// simSeed returns the simulation seed of window w.
	simSeed func(w int) uint64
}

// newController assembles cluster, orchestrator and controller the way
// erms.NewSystem does, with a span around each set-up call.
func newController(s spec, app func() *apps.App, rec *obs.Recorder, tr *tracer, opts ...core.Option) (*loop, error) {
	sp := tr.start(spanAppBuild, -1)
	a := app()
	sp.end()

	sp = tr.start(spanCoreNew, -1)
	orch := kube.New(cluster.New(s.Hosts, cluster.PaperHost), nil)
	opts = append(opts,
		core.WithScheduler(&provision.InterferenceAware{Groups: 4}),
		core.WithObservability(rec))
	ctrl, err := core.New(a, orch, opts...)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.start(spanModels, -1)
	ctrl.UseAnalyticModels()
	sp.end()
	return &loop{ctrl: ctrl}, nil
}

// newReconciler wraps the loop's controller with the spec's window geometry.
func (l *loop) newReconciler(s spec) {
	l.rec = core.NewReconciler(l.ctrl)
	if s.WindowMin > 0 {
		l.rec.WindowMin, l.rec.WarmupMin = s.WindowMin, s.WarmupMin
	}
}

// stepWindow is the window function of the workloads that run
// Reconciler.Step with nothing around it.
func (l *loop) stepWindow(w int, tr *tracer) (windowOut, error) {
	rates := l.rates(w)
	sp := tr.start(spanStep, w)
	rep, err := l.rec.Step(rates, l.simSeed(w))
	sp.end()
	return windowOut{Report: rep, Offered: offered(rates, l.streamsAt(w), l.rec.WindowMin)}, err
}

// streamsAt returns window w's cohort streams, nil on a workload without.
func (l *loop) streamsAt(w int) []sim.Stream {
	if l.streams == nil {
		return nil
	}
	return l.streams(w)
}

// offered counts the requests of one window's load: the streams', and the
// rates of the services no stream covers.
func offered(rates map[string]float64, streams []sim.Stream, windowMin float64) float64 {
	covered := make(map[string]bool)
	total := 0.0
	for _, st := range streams {
		covered[st.Service] = true
		total += st.Pattern.RateAt(0) * windowMin
	}
	for svc, r := range rates {
		if !covered[svc] {
			total += r * windowMin
		}
	}
	return total
}

// cyclePos places window w in the load cycle. Warm-up windows are outside it
// (they run at a flat rate, so that set-up costs the same on every seed);
// the seed sets the position the first timed window starts at, and nothing
// else about the load: every run covers the same cycle, rotated.
func cyclePos(s spec, seed uint64, w int) (pos int, warmup bool) {
	if w < warmupWindows {
		return 0, true
	}
	shift := int(derive(seed, 0) % uint64(s.Cycle))
	return (w - warmupWindows + shift) % s.Cycle, false
}

// derive returns the i-th sub-seed of a run seed.
func derive(seed uint64, i uint64) uint64 {
	r := stats.NewRNG(seed ^ (i+1)*0x9e3779b97f4a7c15)
	return r.Uint64()
}

func buildSocialDiurnal(s spec, seed uint64, rec *obs.Recorder, tr *tracer) (*loop, error) {
	l, err := newController(s, apps.SocialNetwork, rec, tr)
	if err != nil {
		return nil, err
	}
	l.newReconciler(s)
	// One Alibaba-like trace per service, one diurnal swell per cycle; each
	// window reads the rates at its place in the cycle.
	svcs := l.ctrl.App.Services()
	traces := make(map[string]workload.Trace, len(svcs))
	for i, svc := range svcs {
		traces[svc] = workload.AlibabaLikeTrace(socialTraceSeeds[i], socialTraceMin, s.Rate, s.Peak)
	}
	l.rates = func(w int) map[string]float64 {
		out := make(map[string]float64, len(svcs))
		pos, warm := cyclePos(s, seed, w)
		for _, svc := range svcs {
			if warm {
				out[svc] = (s.Rate + s.Peak) / 2
				continue
			}
			out[svc] = math.Max(1, traces[svc].RateAt(float64(pos)*socialTraceMin/float64(s.Cycle)))
		}
		return out
	}
	l.simSeed = func(w int) uint64 { return derive(seed, 100+uint64(w)) }
	l.window = l.stepWindow
	return l, nil
}

func buildHotelChaos(s spec, seed uint64, rec *obs.Recorder, tr *tracer) (*loop, error) {
	res := hotelResilience
	l, err := newController(s, apps.HotelReservation, rec, tr,
		core.WithResilience(&res), core.WithDriftDetection(drift.Config{}))
	if err != nil {
		return nil, err
	}
	l.newReconciler(s)
	l.rec.RebalanceMoves = s.Moves

	// One sine period per cycle, the services a quarter period apart.
	svcs := l.ctrl.App.Services()
	l.rates = func(w int) map[string]float64 {
		out := make(map[string]float64, len(svcs))
		pos, warm := cyclePos(s, seed, w)
		for i, svc := range svcs {
			if warm {
				out[svc] = s.Rate
				continue
			}
			phase := 2 * math.Pi * (float64(pos)/float64(s.Cycle) + float64(i)/float64(len(svcs)))
			out[svc] = s.Rate * (1 + hotelSwing*math.Sin(phase))
		}
		return out
	}
	// search is split into a critical and a batch cohort; the other services
	// stay on the aggregate rate map.
	l.streams = func(w int) []sim.Stream {
		r := l.rates(w)["search"]
		return []sim.Stream{
			{Cohort: "search-interactive", Service: "search", Tier: workload.TierCritical,
				Pattern: workload.Static{Rate: r * (1 - hotelBatchPart)}},
			{Cohort: "search-batch", Service: "search", Tier: workload.TierBatch,
				Pattern: workload.Static{Rate: r * hotelBatchPart}},
		}
	}
	l.rec.StreamsFor = l.streams
	l.simSeed = func(w int) uint64 { return derive(seed, 100+uint64(w)) }

	// One cycle of the standard fault mix, generated once, recurs every
	// cycle in step with the load; the warm-up windows are fault-free.
	one, err := chaos.Generate(chaos.Default(hotelChaosSeed, s.Cycle, s.WindowMin, s.Hosts, l.ctrl.App.Microservices()))
	if err != nil {
		return nil, err
	}
	at := make(map[int]int, s.Cycle) // cycle position -> first window at it
	for w := warmupWindows; w < warmupWindows+s.Cycle; w++ {
		pos, _ := cyclePos(s, seed, w)
		at[pos] = w
	}
	var faults []chaos.Fault
	for first := 0; first < chaosHorizon; first += s.Cycle {
		for _, f := range one.Faults {
			f.Window = first + at[f.Window]
			faults = append(faults, f)
		}
	}
	sched := chaos.NewSchedule(one.Cfg, faults)
	inj := chaos.NewInjector(sched, l.ctrl.Orch)
	inj.SetRecorder(rec)
	l.rec.Chaos = inj
	l.window = func(w int, tr *tracer) (windowOut, error) {
		sp := tr.start(spanChaosBegin, w)
		_, err := inj.BeginWindow(w)
		sp.end()
		if err != nil {
			return windowOut{}, err
		}
		out, err := l.stepWindow(w, tr)
		out.Faults = len(sched.ByWindow(w))
		if err != nil {
			return out, err
		}
		sp = tr.start(spanChaosEnd, w)
		err = inj.EndWindow(w)
		sp.end()
		return out, err
	}
	return l, nil
}

// scaleRates returns the rate function of the scale topologies: a tenth of
// the services, a block of a seed-chosen order, runs at base·scaleHotFactor
// and the rest at base. The block slides by half its length every window, so
// each window 5% of the services heat up and 5% cool down: 10% dirty. It
// slides round a ring of cycle half-blocks, so window w+cycle has the rates of
// window w and the step into it that every other window has; the warm-up
// windows are on the ring too, which makes the first timed cycle like the rest.
func scaleRates(svcs []string, base float64, cycle int, seed uint64) func(w int) map[string]float64 {
	order := stats.NewRNG(seed).Perm(len(svcs))
	hot := int(math.Max(2, math.Round(scaleHotShare*float64(len(svcs)))))
	step := hot / 2
	ring := cycle * step
	return func(w int) map[string]float64 {
		out := make(map[string]float64, len(svcs))
		for _, svc := range svcs {
			out[svc] = base
		}
		first := (w % cycle) * step
		for k := 0; k < hot; k++ {
			out[svcs[order[(first+k)%ring]]] = base * scaleHotFactor
		}
		return out
	}
}

func scaleApp(s spec) func() *apps.App {
	return func() *apps.App { return apps.ScaleTopology(s.Scale) }
}

func buildScaleControl(s spec, seed uint64, rec *obs.Recorder, tr *tracer) (*loop, error) {
	l, err := newController(s, scaleApp(s), rec, tr)
	if err != nil {
		return nil, err
	}
	l.rates = scaleRates(l.ctrl.App.Services(), s.Rate, s.Cycle, derive(seed, 0))
	orch := l.ctrl.Orch
	// The ermsctl-plan decision path, one call per phase.
	l.window = func(w int, tr *tracer) (windowOut, error) {
		rates := l.rates(w)
		sp := tr.start(obs.PhaseRepair, w)
		_, _ = orch.Repair() // best-effort, as in Reconciler.Step
		sp.end()
		sp = tr.start(obs.PhasePlan, w)
		plan, err := l.ctrl.Plan(rates)
		sp.end()
		if err != nil {
			return windowOut{}, fmt.Errorf("plan: %w", err)
		}
		sp = tr.start(obs.PhaseApply, w)
		err = l.ctrl.Apply(plan)
		sp.end()
		if err != nil {
			return windowOut{}, fmt.Errorf("apply: %w", err)
		}
		sp = tr.start(obs.PhaseRebalance, w)
		moves := provision.Rebalance(orch.Cluster(), s.Moves)
		sp.end()
		return windowOut{Plan: plan, Offered: offered(rates, nil, 1), Moves: moves}, nil
	}
	return l, nil
}

func buildScaleWindow(s spec, seed uint64, rec *obs.Recorder, tr *tracer) (*loop, error) {
	l, err := newController(s, scaleApp(s), rec, tr)
	if err != nil {
		return nil, err
	}
	l.newReconciler(s)
	l.rates = scaleRates(l.ctrl.App.Services(), s.Rate, s.Cycle, derive(seed, 0))
	l.simSeed = func(w int) uint64 { return derive(seed, 100+uint64(w)) }
	l.window = l.stepWindow
	return l, nil
}
