package experiments

import (
	"fmt"
	"math"
	"sort"

	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/chaos"
	"erms/internal/cluster"
	"erms/internal/core"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/parallel"
	"erms/internal/sim"
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
	rateAt := func(w int) float64 {
		return baseRate * (1 + 0.25*math.Sin(2*math.Pi*float64(w)/float64(windows)))
	}
	simSeed := func(w int) uint64 { return fig22Seed + 500*uint64(w) + 33 }

	runners := []struct {
		name string
		run  func() ([]faultWindow, error)
	}{
		{"erms", func() ([]faultWindow, error) {
			return runResilientErms(app, sched, windows, windowMin, warmupMin, rateAt, simSeed)
		}},
		{"erms-naive", func() ([]faultWindow, error) {
			return runNaiveErms(app, sched, windows, windowMin, warmupMin, rateAt, simSeed)
		}},
		{"firm", func() ([]faultWindow, error) {
			return runFirm(app, sched, windows, windowMin, warmupMin, rateAt, simSeed)
		}},
	}
	// The three managers are independent closed systems on private clusters;
	// only the (read-only) schedule and app are shared. Each runs its windows
	// sequentially — the loop is stateful — so the fan-out is per manager.
	series, err := parallel.Map(len(runners), func(i int) ([]faultWindow, error) {
		return runners[i].run()
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
		rowV := []string{fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", rateAt(w)), sched.Summary(w)}
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
// hosts paper-spec machines under the default scheme and scheduler, analytic
// models installed, with the given window geometry.
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

// meanViolation averages the per-service violation probabilities of a report.
func meanViolation(v map[string]float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// windowDropMinutes mirrors the resilient loop's observability-gap span: all
// minutes of the window's simulation.
func windowDropMinutes(windowMin float64) []int {
	var out []int
	for m := 0; m < int(windowMin)+1; m++ {
		out = append(out, m)
	}
	return out
}

// runResilientErms drives the full resilient control loop (retry, degraded
// mode, repair) with the chaos injector plugged into both the loop and the
// substrate.
func runResilientErms(app *apps.App, sched *chaos.Schedule, windows int, windowMin, warmupMin float64,
	rateAt func(int) float64, simSeed func(int) uint64) ([]faultWindow, error) {
	rec, err := newLoop(app, sched.Cfg.Hosts, windowMin, warmupMin)
	if err != nil {
		return nil, err
	}
	inj := chaos.NewInjector(sched, rec.C.Orch)
	rec.Chaos = inj

	out := make([]faultWindow, windows)
	for w := 0; w < windows; w++ {
		var rep *core.WindowReport
		err := inj.Window(w, func() (err error) {
			rep, err = rec.Step(uniformRates(app, rateAt(w)), simSeed(w))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("resilient erms window %d: %w", w, err)
		}
		out[w] = faultWindow{
			viol:       meanViolation(rep.Violations),
			containers: rep.Containers,
			repaired:   rep.Repaired,
			degraded:   rep.Degraded,
			outage:     rep.Outage,
		}
	}
	return out, nil
}

// runNaiveErms drives the pre-resilience loop: same planner, but a transient
// control-plane fault freezes the deployment for the window (no retry, no
// degraded-mode bookkeeping beyond reusing the last plan's priorities) and
// containers lost to dead hosts are never re-placed.
func runNaiveErms(app *apps.App, sched *chaos.Schedule, windows int, windowMin, warmupMin float64,
	rateAt func(int) float64, simSeed func(int) uint64) ([]faultWindow, error) {
	rec, err := newLoop(app, sched.Cfg.Hosts, windowMin, warmupMin)
	if err != nil {
		return nil, err
	}
	ctrl, orch := rec.C, rec.C.Orch
	inj := chaos.NewInjector(sched, orch)

	var last *multiplex.Plan
	out := make([]faultWindow, windows)
	for w := 0; w < windows; w++ {
		if _, err := inj.BeginWindow(w); err != nil {
			return nil, err
		}
		rates := uniformRates(app, rateAt(w))
		plan, frozen := last, false
		if inj.OpError(w, "plan", 0) == nil {
			if p, err := ctrl.Plan(rates); err == nil {
				if inj.OpError(w, "apply", 0) == nil {
					if err := ctrl.Apply(p); err == nil {
						plan, last = p, p
					} else {
						frozen = true // rollback restored the old deployment
					}
				} else {
					frozen = true
				}
			} else {
				frozen = true
			}
		} else {
			frozen = true
		}

		cell := faultWindow{degraded: frozen, containers: orch.Cluster().NumContainers()}
		if plan == nil {
			cell.outage, cell.viol = true, 1
		} else {
			opts := core.EvalOpts{Failures: inj.WindowFailures(w)}
			if inj.ObservabilityGap(w) {
				opts.DropMinutes = windowDropMinutes(windowMin)
			}
			res, err := ctrl.EvaluateDeployed(plan, rates, windowMin, warmupMin, simSeed(w), opts)
			if err != nil {
				// Un-runnable window (e.g. a microservice with zero live
				// containers): every request misses its SLA.
				cell.outage, cell.viol = true, 1
			} else {
				cell.viol = meanViolation(res.Violations)
			}
		}
		if err := inj.EndWindow(w); err != nil {
			return nil, err
		}
		out[w] = cell
	}
	return out, nil
}

// runFirm drives the Firm baseline through the same schedule: stale-workload
// planning (the previous window's rate), blind placement, no repair, and a
// control-plane fault skips the window's replan entirely.
func runFirm(app *apps.App, sched *chaos.Schedule, windows int, windowMin, warmupMin float64,
	rateAt func(int) float64, simSeed func(int) uint64) ([]faultWindow, error) {
	cl := cluster.New(sched.Cfg.Hosts, cluster.PaperHost)
	orch := kube.New(cl, kube.BlindSpread{})
	inj := chaos.NewInjector(sched, orch)
	firm := baselinePlanner(baselines.Firm{})

	deployed := false
	out := make([]faultWindow, windows)
	for w := 0; w < windows; w++ {
		if _, err := inj.BeginWindow(w); err != nil {
			return nil, err
		}
		staleW := w - 1
		if staleW < 0 {
			staleW = 0
		}
		if inj.OpError(w, "plan", 0) == nil && inj.OpError(w, "apply", 0) == nil {
			pc := newContext(app, uniformRates(app, rateAt(staleW)), 0, cl.MeanCPUUtil(), cl.MeanMemUtil())
			res, err := firm.run(pc)
			if err != nil {
				return nil, err
			}
			mss := make([]string, 0, len(res.merged))
			for ms := range res.merged {
				mss = append(mss, ms)
			}
			sort.Strings(mss)
			for _, ms := range mss {
				// Best effort: on a degraded cluster Firm deploys what fits.
				_ = orch.Apply(app.Containers[ms], res.merged[ms])
			}
			deployed = true
		} else {
			out[w].degraded = true
		}

		cell := out[w]
		cell.containers = cl.NumContainers()
		if !deployed {
			cell.outage, cell.viol = true, 1
		} else {
			cell.viol, cell.outage = measureFirmWindow(app, cl, uniformRates(app, rateAt(w)),
				windowMin, warmupMin, simSeed(w), inj.WindowFailures(w), inj.ObservabilityGap(w))
		}
		if err := inj.EndWindow(w); err != nil {
			return nil, err
		}
		out[w] = cell
	}
	return out, nil
}

// measureFirmWindow simulates one window of the Firm deployment under the
// injected failures; an un-runnable window counts as a full outage.
func measureFirmWindow(app *apps.App, cl *cluster.Cluster, rates map[string]float64,
	windowMin, warmupMin float64, seed uint64, failures []sim.Failure, obsGap bool) (float64, bool) {
	cfg := sim.Config{
		Seed:           seed,
		Cluster:        cl,
		Interference:   defaultInterference(),
		Profiles:       app.Profiles,
		Graphs:         app.Graphs,
		Patterns:       staticPatterns(rates),
		SLAs:           app.SLAs,
		DurationMin:    windowMin,
		WarmupMin:      warmupMin,
		NetworkDelayMs: 0.05,
		Failures:       failures,
	}
	if obsGap {
		cfg.DropMinutes = windowDropMinutes(windowMin)
	}
	res, err := sim.Run(cfg, sim.PartitionOpts{})
	if err != nil {
		return 1, true
	}
	v := make(map[string]float64, len(res.PerService))
	for svc, sr := range res.PerService {
		v[svc] = sr.ViolationRate()
	}
	return meanViolation(v), false
}
