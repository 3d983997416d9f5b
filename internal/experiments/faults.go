package experiments

import (
	"fmt"
	"math"

	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/chaos"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/sortutil"
	"erms/internal/stats"
)

func init() {
	register("fig22", Fig22)
}

// fig22Seed derives every random stream of the fault experiment: the chaos
// schedule and the per-window simulation seeds.
const fig22Seed = 22

// faultWindow is one window's outcome for one resource manager.
type faultWindow struct {
	viol       float64 // mean per-service SLA violation probability
	containers int
	repaired   int
	degraded   bool
	outage     bool
}

// Fig22 is the fault-injection experiment: the Hotel Reservation application
// runs through a standard chaos schedule (host failures with detection lag,
// container crashes, interference spikes, observability gaps, transient
// control-plane errors) under three resource managers:
//
//   - erms: the resilient control loop (retry with backoff, degraded mode,
//     replacement scheduling, atomic apply);
//   - erms-naive: the same planner with every resilience mechanism off —
//     a transient control-plane fault freezes the deployment and lost
//     containers stay lost;
//   - firm: the late-detection baseline (plans against the previous
//     window's workload, blind placement, no repair, no retry).
//
// All three face the byte-identical fault schedule on identical clusters
// with identical per-window simulation seeds, so every difference in SLA
// violation probability is attributable to the control loop.
func Fig22(quick bool) []*Table {
	app := apps.HotelReservation()
	windows := 10
	windowMin := 1.2
	warmupMin := 0.3
	baseRate := 12_000.0
	if quick {
		windows = 5
		windowMin = 0.8
		warmupMin = 0.2
		baseRate = 8_000
	}
	const hosts = 20

	sched, err := chaos.Generate(chaos.Default(fig22Seed, windows, windowMin, hosts, app.Microservices()))
	if err != nil {
		panic(err)
	}
	fr := &faultRun{
		app:       app,
		sched:     sched,
		windows:   windows,
		windowMin: windowMin,
		warmupMin: warmupMin,
		rateAt: func(w int) float64 {
			return baseRate * (1 + 0.25*math.Sin(2*math.Pi*float64(w)/float64(windows)))
		},
		simSeed: func(w int) uint64 { return fig22Seed + 500*uint64(w) + 33 },
	}
	runners := []struct {
		name  string
		start func(rec *core.Reconciler, inj *chaos.Injector) faultStep
	}{
		{"erms", fr.resilient},
		{"erms-naive", fr.naive},
		{"firm", fr.firm},
	}
	// The three managers are independent closed systems on private clusters;
	// only the (read-only) schedule and app are shared. Each runs its windows
	// sequentially — the loop is stateful — so the fan-out is per manager.
	series, err := parallel.Map(len(runners), func(i int) ([]faultWindow, error) {
		return fr.arm(runners[i].name, runners[i].start)
	})
	if err != nil {
		panic(err)
	}

	viol := &Table{
		ID:     "fig22a",
		Title:  "SLA violation probability per window under the standard fault schedule",
		Header: []string{"window", "workload req/min", "faults"},
	}
	containers := &Table{
		ID:     "fig22b",
		Title:  "Containers deployed per window under faults (repairs included)",
		Header: []string{"window", "faults"},
	}
	for _, r := range runners {
		viol.Header = append(viol.Header, r.name)
		containers.Header = append(containers.Header, r.name)
	}
	means := make([]*stats.Moments, len(runners))
	degraded := make([]int, len(runners))
	outages := make([]int, len(runners))
	repaired := make([]int, len(runners))
	for i := range runners {
		means[i] = &stats.Moments{}
	}
	for w := 0; w < windows; w++ {
		rowV := []string{fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", fr.rateAt(w)), sched.Summary(w)}
		rowC := []string{fmt.Sprintf("%d", w), sched.Summary(w)}
		for i := range runners {
			cell := series[i][w]
			means[i].Add(cell.viol)
			repaired[i] += cell.repaired
			mark := ""
			if cell.degraded {
				degraded[i]++
				mark = "*"
			}
			if cell.outage {
				outages[i]++
				mark = "!"
			}
			rowV = append(rowV, f3(cell.viol)+mark)
			rowC = append(rowC, fmt.Sprintf("%d", cell.containers))
		}
		viol.AddRow(rowV...)
		containers.AddRow(rowC...)
	}
	for i, r := range runners {
		viol.AddNote("%s: mean violation probability %s, degraded windows %d (*), outage windows %d (!)",
			r.name, f3(means[i].Mean()), degraded[i], outages[i])
	}
	viol.AddNote("expected: resilient erms stays lowest — repairs restore capacity after node deaths and retries absorb control-plane faults; the naive loop freezes and accumulates capacity loss")
	containers.AddNote("erms replacement scheduling re-placed %d containers lost to failed hosts; the other managers never repair", repaired[0])
	return []*Table{viol, containers}
}

// newLoop builds the stock control loop of the window experiments: app on
// hosts paper-spec machines under the default scheme and the default,
// batch-blind scheduler (kube.BlindSpread), analytic models installed, with
// the given window geometry.
func newLoop(app *apps.App, hosts int, windowMin, warmupMin float64, opts ...core.Option) (*core.Reconciler, error) {
	ctrl, err := core.New(app, kube.New(cluster.New(hosts, cluster.PaperHost), nil), opts...)
	if err != nil {
		return nil, err
	}
	ctrl.UseAnalyticModels()
	rec := core.NewReconciler(ctrl)
	rec.WindowMin, rec.WarmupMin = windowMin, warmupMin
	return rec, nil
}

// meanViolation averages the per-service violation probabilities of a
// report, summed in service order so the mean is bit-stable.
func meanViolation(v map[string]float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, svc := range sortutil.Keys(v) {
		s += v[svc]
	}
	return s / float64(len(v))
}

// faultRun is the fault experiment's shared setting: every arm runs the
// same app through the same schedule at the same rates and simulation seeds.
type faultRun struct {
	app                  *apps.App
	sched                *chaos.Schedule
	windows              int
	windowMin, warmupMin float64
	rateAt               func(w int) float64
	simSeed              func(w int) uint64
}

// faultStep runs one arm's window w: its control decisions, then the
// window's measurement.
type faultStep func(w int) (faultWindow, error)

// arm runs one resource manager through every window on its own stock
// control loop, each window inside the injector's bracket (chaos.Injector.
// Window). start wires the manager to the loop and the injector and returns
// its window step.
func (f *faultRun) arm(name string, start func(rec *core.Reconciler, inj *chaos.Injector) faultStep) ([]faultWindow, error) {
	rec, err := newLoop(f.app, f.sched.Cfg.Hosts, f.windowMin, f.warmupMin)
	if err != nil {
		return nil, err
	}
	inj := chaos.NewInjector(f.sched, rec.C.Orch)
	step := start(rec, inj)
	out := make([]faultWindow, f.windows)
	for w := range out {
		if err := inj.Window(w, func() (err error) {
			out[w], err = step(w)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s window %d: %w", name, w, err)
		}
	}
	return out, nil
}

// measure is one window's outcome for an arm without the resilient loop:
// rec's deployment simulated by Controller.EvaluateDeployed under window w's
// injected faults, with plan's priorities. No plan yet, or an un-runnable
// window (a microservice with no live container), is an outage in which
// every request misses its SLA.
func (f *faultRun) measure(rec *core.Reconciler, inj *chaos.Injector, plan *multiplex.Plan, w int, degraded bool) faultWindow {
	cell := faultWindow{degraded: degraded, containers: rec.C.Orch.Cluster().NumContainers(), outage: true, viol: 1}
	if plan == nil {
		return cell
	}
	// An observability gap loses every minute of the window's simulation,
	// as in the resilient loop.
	opts := core.EvalOpts{Failures: inj.WindowFailures(w)}
	if inj.ObservabilityGap(w) {
		for m := 0; m < int(f.windowMin)+1; m++ {
			opts.DropMinutes = append(opts.DropMinutes, m)
		}
	}
	res, err := rec.C.EvaluateDeployed(plan, uniformRates(f.app, f.rateAt(w)), f.windowMin, f.warmupMin, f.simSeed(w), opts)
	if err == nil {
		cell.outage, cell.viol = false, meanViolation(res.Violations)
	}
	return cell
}

// resilient is the full resilient control loop (retry, degraded mode,
// repair) with the injector plugged into both the loop and the substrate.
func (f *faultRun) resilient(rec *core.Reconciler, inj *chaos.Injector) faultStep {
	rec.Chaos = inj
	return func(w int) (faultWindow, error) {
		rep, err := rec.Step(uniformRates(f.app, f.rateAt(w)), f.simSeed(w))
		if err != nil {
			return faultWindow{}, err
		}
		return faultWindow{
			viol:       meanViolation(rep.Violations),
			containers: rep.Containers,
			repaired:   rep.Repaired,
			degraded:   rep.Degraded,
			outage:     rep.Outage,
		}, nil
	}
}

// naive is the pre-resilience loop: same planner, but a transient
// control-plane fault freezes the deployment for the window (no retry, no
// degraded-mode bookkeeping beyond reusing the last plan's priorities) and
// containers lost to dead hosts are never re-placed.
func (f *faultRun) naive(rec *core.Reconciler, inj *chaos.Injector) faultStep {
	var last *multiplex.Plan
	return func(w int) (faultWindow, error) {
		frozen := true // a failed Apply's rollback restored the old deployment
		if inj.OpError(w, "plan", 0) == nil {
			p, err := rec.C.Plan(uniformRates(f.app, f.rateAt(w)))
			if err == nil && inj.OpError(w, "apply", 0) == nil && rec.C.Apply(p) == nil {
				last, frozen = p, false
			}
		}
		return f.measure(rec, inj, last, w, frozen), nil
	}
}

// firm is the Firm baseline: stale-workload planning (the previous window's
// rate) on the loop's analytic models, blind placement, no repair, and a
// control-plane fault skips the window's replan entirely. Its deployment is
// measured with a plan that has no ranks: Firm does not prioritize.
func (f *faultRun) firm(rec *core.Reconciler, inj *chaos.Injector) faultStep {
	firm := baselinePlanner(baselines.Firm{})
	var deployed *multiplex.Plan
	return func(w int) (faultWindow, error) {
		if inj.OpError(w, "plan", 0) != nil || inj.OpError(w, "apply", 0) != nil {
			return f.measure(rec, inj, deployed, w, true), nil
		}
		cl := rec.C.Orch.Cluster()
		pc := newContext(f.app, rec.C.Models, uniformRates(f.app, f.rateAt(max(w-1, 0))), 0, cl.MeanCPUUtil(), cl.MeanMemUtil())
		res, err := firm.run(pc)
		if err != nil {
			return faultWindow{}, err
		}
		for _, ms := range sortutil.Keys(res.merged) {
			// Best effort: on a degraded cluster Firm deploys what fits.
			_ = rec.C.Orch.Apply(f.app.Containers[ms], res.merged[ms])
		}
		deployed = &multiplex.Plan{}
		return f.measure(rec, inj, deployed, w, false), nil
	}
}
