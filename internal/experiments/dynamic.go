package experiments

import (
	"fmt"

	"erms/internal/apps"
	"erms/internal/parallel"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

func init() {
	register("fig13", Fig13)
}

// Fig13 reproduces the dynamic-workload experiment (§6.3.2): an
// Alibaba-shaped diurnal trace drives the Social Network application; every
// scaling window each manager re-plans, the deployment is reconciled, and a
// window of real (simulated) traffic measures tail latency. Firm reproduces
// its late-detection behaviour by planning against the previous window's
// workload.
func Fig13(quick bool) []*Table {
	app := apps.SocialNetwork()
	windows := 10
	windowMin := 1.5
	peak := 90_000.0
	if quick {
		windows = 4
		windowMin = 0.8
		peak = 50_000
	}
	trace := workload.AlibabaLikeTrace(3, int(float64(windows)*windowMin)+1, 15_000, peak)
	models := modelsFor(app, defaultInterference())
	floor := appSLAFloor(app, models, staticBackground.CPU, staticBackground.Mem)
	slaMs := floor * 2.0

	planners := defaultPlanners()
	containers := &Table{
		ID:     "fig13a",
		Title:  "Containers deployed over time under the dynamic workload",
		Header: []string{"window", "workload req/min"},
	}
	tails := &Table{
		ID:     "fig13b",
		Title:  "P95 end-to-end latency over time (normalized to the SLA; >1 violates)",
		Header: []string{"window", "workload req/min"},
	}
	for _, p := range planners {
		containers.Header = append(containers.Header, p.name)
		tails.Header = append(tails.Header, p.name)
	}

	avgContainers := map[string]*stats.Moments{}
	worstTail := map[string]float64{}
	for _, p := range planners {
		avgContainers[p.name] = &stats.Moments{}
	}

	// Each (window, planner) cell plans against trace rates that are pure
	// functions of the window index ("firm" uses the previous window's rate,
	// available directly from the trace), builds its own cluster, and
	// simulates with an explicit per-window seed — so the whole grid fans
	// out. Rows are assembled afterwards in window order.
	type cellOut struct {
		total int
		worst float64
	}
	cells, err := parallel.Map(windows*len(planners), func(i int) (cellOut, error) {
		w, p := i/len(planners), planners[i%len(planners)]
		rate := trace.RateAt(float64(w) * windowMin)
		planRate := rate
		if p.name == "firm" {
			// Firm detects bottlenecks only after they appear: it plans
			// for the load it has already observed.
			planRate = trace.RateAt(float64(w-1) * windowMin)
			if w == 0 {
				planRate = trace.RateAt(0)
			}
		}
		pc := newContext(app, uniformRates(app, planRate), slaMs,
			staticBackground.CPU, staticBackground.Mem)
		res, err := p.run(pc)
		if err != nil {
			return cellOut{}, err
		}
		total := res.total()

		// Deploy and simulate this window's real traffic, offered by
		// closed-loop clients.
		out, err := measureOnTestbed(app, testbedScheduler(p), res.merged, testbedHot, testbedCool, slaMs, sim.Config{
			Seed:        uint64(100*w) + 7,
			ClosedUsers: closedLoopUsers(app, rate),
			ThinkTimeMs: testbedThinkMs,
			Priorities:  res.ranks,
			Delta:       0.05,
			DurationMin: windowMin + 0.4,
			WarmupMin:   0.4,
		})
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{total: total, worst: out.worstTail}, nil
	})
	if err != nil {
		panic(err)
	}
	for w := 0; w < windows; w++ {
		rate := trace.RateAt(float64(w) * windowMin)
		rowC := []string{fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", rate)}
		rowT := append([]string(nil), rowC...)
		for pi, p := range planners {
			cell := cells[w*len(planners)+pi]
			avgContainers[p.name].Add(float64(cell.total))
			rowC = append(rowC, fmt.Sprintf("%d", cell.total))
			if cell.worst > worstTail[p.name] {
				worstTail[p.name] = cell.worst
			}
			rowT = append(rowT, f2(cell.worst))
		}
		containers.AddRow(rowC...)
		tails.AddRow(rowT...)
	}
	erms := avgContainers["erms"].Mean()
	for _, p := range planners {
		if p.name == "erms" {
			continue
		}
		containers.AddNote("erms deploys %.1f%% fewer containers than %s on average (paper: ~30%%)",
			100*(1-erms/avgContainers[p.name].Mean()), p.name)
	}
	for _, p := range planners {
		tails.AddNote("%s worst window: %.2fx SLA (paper: erms never violates; firm up to 1.5x at peaks)",
			p.name, worstTail[p.name])
	}
	return []*Table{containers, tails}
}
