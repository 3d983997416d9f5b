package experiments

import (
	"fmt"
	"sort"

	"erms/internal/apps"
	"erms/internal/parallel"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

func init() {
	register("fig11", Fig11)
	register("fig12", Fig12)
}

// staticSetting is one (application, workload, SLA multiple) point of the
// §6.3.1 sweep.
type staticSetting struct {
	app      *apps.App
	rate     float64
	slaLevel string
	slaMult  float64
}

// staticBackground is the colocated batch load during the static
// experiments: microservices share hosts with batch jobs (§2, [24]).
var staticBackground = workload.Interference{CPU: 0.35, Mem: 0.35}

// staticSettings builds the sweep. SLA thresholds are expressed as
// multiples of each app's feasibility floor so every setting is meaningful
// for every planner (the floor depends on the synthetic service times; the
// paper's absolute 50-200ms range assumes DeathStarBench's).
func staticSettings(quick bool) []staticSetting {
	appsUnder := []*apps.App{apps.SocialNetwork(), apps.HotelReservation(), apps.MediaService()}
	rates := []float64{600, 5_000, 20_000, 50_000, 100_000}
	slas := []struct {
		level string
		mult  float64
	}{{"low", 1.4}, {"mid", 2.0}, {"high", 3.0}}
	if quick {
		appsUnder = []*apps.App{apps.SocialNetwork(), apps.HotelReservation()}
		rates = []float64{600, 20_000, 100_000}
	}
	var out []staticSetting
	for _, app := range appsUnder {
		for _, rate := range rates {
			for _, s := range slas {
				out = append(out, staticSetting{app: app, rate: rate, slaLevel: s.level, slaMult: s.mult})
			}
		}
	}
	return out
}

// planSetting runs one planner on one setting, returning total deployed
// containers (merged).
func planSetting(p planner, s staticSetting) (int, error) {
	pc, _ := settingContext(s.app, s.rate, s.slaMult, staticBackground)
	res, err := p.run(pc)
	if err != nil {
		return 0, err
	}
	return res.total(), nil
}

// Fig11 reproduces the static-workload resource-usage comparison: (a) the
// CDF of total containers across all settings per scheme, and (b) average
// containers by workload and by SLA level.
func Fig11(quick bool) []*Table {
	settings := staticSettings(quick)
	planners := defaultPlanners()

	counts := make(map[string][]float64) // planner -> per-setting totals
	byRate := make(map[string]map[float64]*stats.Moments)
	bySLA := make(map[string]map[string]*stats.Moments)
	for _, p := range planners {
		byRate[p.name] = make(map[float64]*stats.Moments)
		bySLA[p.name] = make(map[string]*stats.Moments)
	}
	// Every (setting, planner) plan is independent; fan them out and fold
	// the totals back in sweep order.
	totals, err := parallel.Map(len(settings)*len(planners), func(i int) (int, error) {
		s, p := settings[i/len(planners)], planners[i%len(planners)]
		total, err := planSetting(p, s)
		if err != nil {
			return 0, fmt.Errorf("fig11 %s on %s@%v/%s: %w", p.name, s.app.Name, s.rate, s.slaLevel, err)
		}
		return total, nil
	})
	if err != nil {
		panic(err)
	}
	for si, s := range settings {
		for pi, p := range planners {
			total := totals[si*len(planners)+pi]
			counts[p.name] = append(counts[p.name], float64(total))
			if byRate[p.name][s.rate] == nil {
				byRate[p.name][s.rate] = &stats.Moments{}
			}
			byRate[p.name][s.rate].Add(float64(total))
			if bySLA[p.name][s.slaLevel] == nil {
				bySLA[p.name][s.slaLevel] = &stats.Moments{}
			}
			bySLA[p.name][s.slaLevel].Add(float64(total))
		}
	}

	// (a) CDF of per-setting totals.
	a := cdfTable("fig11a", "CDF of containers allocated across static settings",
		planners, counts, []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0})

	// (b) Averages by workload and SLA level.
	b := &Table{
		ID:     "fig11b",
		Title:  "Average containers by workload and SLA level",
		Header: []string{"setting"},
	}
	for _, p := range planners {
		b.Header = append(b.Header, p.name)
	}
	var rates []float64
	for r := range byRate[planners[0].name] {
		rates = append(rates, r)
	}
	sort.Float64s(rates)
	for _, r := range rates {
		row := []string{fmt.Sprintf("workload %.0f/min", r)}
		for _, p := range planners {
			row = append(row, f1(byRate[p.name][r].Mean()))
		}
		b.AddRow(row...)
	}
	for _, lvl := range []string{"low", "mid", "high"} {
		if bySLA[planners[0].name][lvl] == nil {
			continue
		}
		row := []string{"sla " + lvl}
		for _, p := range planners {
			row = append(row, f1(bySLA[p.name][lvl].Mean()))
		}
		b.AddRow(row...)
	}
	// Overall savings.
	mean := func(name string) float64 { return stats.Mean(counts[name]) }
	ermsMean := mean("erms")
	for _, p := range planners[1:] {
		b.AddNote("erms saves %.1f%% of containers vs %s (paper: 48.1%%/53.5%%/60.1%% vs firm/grandslam/rhythm)",
			100*(1-ermsMean/mean(p.name)), p.name)
	}
	return []*Table{a, b}
}

// cdfTable tabulates each planner's empirical CDF of counts[p.name] at the
// quantiles qs of every planner's counts pooled.
func cdfTable(id, title string, planners []planner, counts map[string][]float64, qs []float64) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"containers <="}}
	var all []float64
	for _, p := range planners {
		t.Header = append(t.Header, p.name)
		all = append(all, counts[p.name]...)
	}
	sort.Float64s(all)
	for _, q := range qs {
		thr := stats.QuantileSorted(all, q)
		row := []string{fmt.Sprintf("%.0f", thr)}
		for _, p := range planners {
			row = append(row, pct(stats.CDF(counts[p.name], []float64{thr})[0]))
		}
		t.AddRow(row...)
	}
	return t
}

// simSetting deploys a plan on an interference-loaded cluster and measures
// real end-to-end behaviour.
func simSetting(p planner, s staticSetting, durationMin float64, seed uint64) (viol float64, tailOverSLA float64, err error) {
	pc, slaMs := settingContext(s.app, s.rate, s.slaMult, staticBackground)
	res, err := p.run(pc)
	if err != nil {
		return 0, 0, err
	}
	// Open-loop fixed-rate generation, like the paper's static workloads
	// (§6.1): a saturated deployment accumulates queues, which is exactly
	// the violation signal Fig. 12 reports. (Figs. 13/15 use closed-loop
	// clients to keep their latency *ratios* bounded.)
	out, err := measureOnTestbed(s.app, testbedScheduler(p), res.merged, testbedHot, testbedCool, slaMs, sim.Config{
		Seed:        seed,
		Patterns:    staticPatterns(uniformRates(s.app, s.rate)),
		Priorities:  res.ranks,
		Delta:       0.05,
		DurationMin: durationMin + 0.5,
		WarmupMin:   0.5,
	})
	return out.viol, out.tail, err
}

// Fig12 reproduces the end-to-end SLA outcomes of the static experiments:
// (a) SLA violation probability and (b) P95 latency normalized to the SLA,
// per scheme, measured in the simulator with background interference.
func Fig12(quick bool) []*Table {
	app := apps.HotelReservation()
	rates := []float64{80_000, 160_000}
	slaMults := []float64{1.4, 3.0}
	duration := 2.0
	if quick {
		rates = []float64{120_000}
		duration = 1.0
	}
	planners := defaultPlanners()

	a := &Table{
		ID:     "fig12a",
		Title:  "SLA violation probability (simulated, background interference 35%/35%)",
		Header: []string{"setting"},
	}
	b := &Table{
		ID:     "fig12b",
		Title:  "P95 end-to-end latency normalized to the SLA",
		Header: []string{"setting"},
	}
	for _, p := range planners {
		a.Header = append(a.Header, p.name)
		b.Header = append(b.Header, p.name)
	}
	agg := make(map[string]*stats.Moments)
	for _, p := range planners {
		agg[p.name] = &stats.Moments{}
	}
	// One simulation per (rate, slaMult, planner); seeds follow the flat
	// sweep index exactly as the old sequential seed++ did.
	type simOut struct{ viol, tail float64 }
	const baseSeed = uint64(21)
	nm := len(slaMults) * len(planners)
	results, err := parallel.Map(len(rates)*nm, func(i int) (simOut, error) {
		rate := rates[i/nm]
		mult := slaMults[(i/len(planners))%len(slaMults)]
		p := planners[i%len(planners)]
		s := staticSetting{app: app, rate: rate, slaMult: mult, slaLevel: fmt.Sprintf("%.1fx", mult)}
		viol, tail, err := simSetting(p, s, duration, baseSeed+uint64(i))
		if err != nil {
			return simOut{}, err
		}
		return simOut{viol, tail}, nil
	})
	if err != nil {
		panic(err)
	}
	for ri, rate := range rates {
		for mi, mult := range slaMults {
			rowA := []string{fmt.Sprintf("%s %.0f/min sla %.1fx", app.Name, rate, mult)}
			rowB := append([]string(nil), rowA[0])
			for pi, p := range planners {
				r := results[ri*nm+mi*len(planners)+pi]
				agg[p.name].Add(r.viol)
				rowA = append(rowA, pct(r.viol))
				rowB = append(rowB, f2(r.tail))
			}
			a.AddRow(rowA...)
			b.AddRow(rowB...)
		}
	}
	for _, p := range planners {
		a.AddNote("%s mean violation rate: %s", p.name, pct(agg[p.name].Mean()))
	}
	a.AddNote("paper: erms <2%%, firm 16.5%%, grandslam 13.5%%, rhythm 7.3%%")
	b.AddNote("paper: erms ~10%% lower normalized tail latency than baselines")
	return []*Table{a, b}
}
