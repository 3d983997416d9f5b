package experiments

import (
	"fmt"

	"erms/examples/specs"
	"erms/internal/spec"
	"erms/internal/workload"
)

func init() {
	register("figSpec", FigSpec)
}

// FigSpec runs the shipped example specs (examples/specs, embedded) end to
// end — flash crowd and regional failover — and reports per-tier SLA
// violation tables. The flash crowd is the SLO-tier contract in action: with
// tier-aware admission control, the sheddable and batch cohorts absorb the
// overload (shed first, violate most) while the critical cohort rides through
// the same crowd with the lowest violation rate. Quick runs compress spec
// time with the schema's time_scale knob instead of editing the scenario.
func FigSpec(quick bool) []*Table {
	cases := []struct {
		title     string
		file      string
		timeScale float64 // quick-mode compression
	}{
		{"flash crowd (examples/specs/flashcrowd.yaml)", "flashcrowd.yaml", 3},
		{"regional failover (examples/specs/failover.yaml)", "failover.yaml", 2},
	}
	var tables []*Table
	for _, c := range cases {
		s, err := spec.Parse(specs.Read(c.file))
		if err != nil {
			panic(err)
		}
		if quick {
			s.TimeScale = c.timeScale
		}
		sc, err := s.Compile()
		if err != nil {
			panic(err)
		}
		res, err := sc.Run(nil)
		if err != nil {
			panic(err)
		}
		tab := &Table{
			ID:     "figSpec",
			Title:  c.title,
			Header: []string{"tier", "issued", "completed", "slow", "errors", "shed", "violation%"},
		}
		for _, tier := range sc.TiersPresent() {
			a := res.Totals[tier]
			tab.AddRow(tier.String(),
				fmt.Sprint(a.Issued), fmt.Sprint(a.Completed), fmt.Sprint(a.Slow),
				fmt.Sprint(a.Errors), fmt.Sprint(a.Shed), pct(a.ViolationRate()))
		}
		crit := res.Totals[workload.TierCritical]
		shed := res.Totals[workload.TierSheddable]
		if shed.Issued > 0 && crit.Issued > 0 {
			ok := "holds"
			if shed.ViolationRate() < crit.ViolationRate() {
				ok = "VIOLATED"
			}
			tab.AddNote("tier contract %s: sheddable violation rate %s >= critical %s",
				ok, pct(shed.ViolationRate()), pct(crit.ViolationRate()))
		}
		tab.AddNote("%d cohorts, %d windows, %d containers peak; spec seed %d, time_scale %g",
			len(sc.Streams), len(res.Windows), maxContainers(res), sc.Seed, s.TimeScale)
		tables = append(tables, tab)
	}
	return tables
}

func maxContainers(res *spec.RunResult) int {
	peak := 0
	for _, w := range res.Windows {
		if w.Containers > peak {
			peak = w.Containers
		}
	}
	return peak
}
