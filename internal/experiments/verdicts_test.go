package experiments

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"erms/internal/parallel"
)

// figureCase is how TestFigures runs one registered figure.
type figureCase struct {
	// invariant: the tables are a pure function of the figure's seeds, so a
	// render on four workers must equal the render on one byte for byte.
	// An invariant or heavy figure's quick tables are pinned by
	// testdata/<id>.golden.
	invariant bool
	// heavy: tens of seconds of simulation. The figure renders once, on four
	// workers, against a golden captured on one, and skips under -race
	// (~5 minutes there, past go test's default timeout) and -short.
	heavy  bool
	claims []claim
}

// claim is one EXPERIMENTS verdict made executable: a named predicate over
// the figure's quick tables.
type claim struct {
	name string
	// row is the ID cell of the EXPERIMENTS verdict-table row the claim
	// checks, or, for a figure without a row, the heading of its section.
	row string
	// quote is the wording of that row or section the claim checks,
	// verbatim up to whitespace.
	quote string
	// tol is the stated tolerance: the slack each comparison allows, in the
	// compared cells' unit, or a factor where the check names it so.
	tol   float64
	check func(c *cells, tol float64) error
}

// proseOnly lists the verdict rows no claim checks, each with the reason.
var proseOnly = map[string]string{
	"§6.5.2":                       "its cells are wall-clock times (fig17's plan time, fig20's placement time)",
	"BENCH_5 (ext.; was figScale)": "a layer benchmark: bench.sh gates the speedup, the scaling oracle tests the plans",
	"BENCH_6 (ext.; was figShard)": "a layer benchmark: bench.sh gates the speedup, TestDirtyScheduleMatchesOracle the skipping",
	"BENCH_7 (ext.; was figSim)":   "a layer benchmark: bench.sh gates the speedup, internal/sim's tests the fidelity",
}

// figures holds every registered quick figure.
var figures = map[string]figureCase{
	"fig2": {invariant: true, claims: []claim{
		{name: "more than 40 % of microservices are shared by over 30 services", row: "Fig. 2",
			quote: "47.9% shared by >30 of 300 services", tol: 0,
			check: func(c *cells, tol float64) error {
				v := c.num("fig2", "30", "fraction of microservices")
				return holds(v >= 40-tol, "shared by > 30: %g %%", v)
			}},
		{name: "the CDF never rises with N and keeps a tail past 60 services", row: "Fig. 2",
			quote: "heavy-tailed CDF", tol: 0,
			check: func(c *cells, tol float64) error {
				if err := monotone(c, "fig2", "fraction of microservices", -1, tol); err != nil {
					return err
				}
				v := c.num("fig2", "60", "fraction of microservices")
				return holds(v > 0, "shared by > 60: %g %%", v)
			}},
	}},
	"fig3": {invariant: true, claims: []claim{
		{name: "truth is flat then steep, and at least 2× steeper past the knee on the 27/62 host", row: "Fig. 3",
			quote: "truth curves flat→steep with the knee pulled in by interference", tol: 2,
			check: func(c *cells, factor float64) error {
				rise := func(col, from, to string) float64 {
					return c.num("fig3", to, col) - c.num("fig3", from, col)
				}
				for _, col := range []string{"T(10%,10%)", "T(47%,35%)", "T(27%,62%)"} {
					flat, steep := rise(col, "0.10", "0.70"), rise(col, "0.70", "0.88")
					if !(steep > flat) {
						return fmt.Errorf("%s rises %.1f below the knee, %.1f past it", col, flat, steep)
					}
				}
				idle, hot := rise("T(10%,10%)", "0.70", "0.88"), rise("T(27%,62%)", "0.70", "0.88")
				return holds(hot >= factor*idle, "past the knee: %.1f ms idle, %.1f ms on the 27/62 host", idle, hot)
			}},
		{name: "the piece-wise fit rises with load, faster under interference", row: "Fig. 3",
			quote: "P95 piece-wise linear in workload; knee earlier and slope steeper under interference; fit tracks truth", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, col := range []string{"F(10%,10%)", "F(47%,35%)", "F(27%,62%)"} {
					if err := monotone(c, "fig3", col, +1, tol); err != nil {
						return err
					}
				}
				span := func(col string) float64 { return c.num("fig3", "0.88", col) - c.num("fig3", "0.10", col) }
				return holds(span("F(27%,62%)") > span("F(10%,10%)")+tol, "fit spans %.1f ms idle, %.1f ms hot",
					span("F(10%,10%)"), span("F(27%,62%)"))
			}},
	}},
	"fig4": {invariant: true, claims: []claim{
		{name: "erms gives U the higher target, a larger share than mean-based GrandSLAm", row: "Fig. 4a",
			quote: "Erms gives the workload-sensitive U a higher target", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, w := range []string{"low-workload", "high-workload"} {
					u, p := c.num("fig4a", w+"/erms", "target U"), c.num("fig4a", w+"/erms", "target P")
					gu, gp := c.num("fig4a", w+"/grandslam", "target U"), c.num("fig4a", w+"/grandslam", "target P")
					if !(u > p+tol && u/(u+p) > gu/(gu+gp)+tol) {
						return fmt.Errorf("%s: erms U %g / P %g, grandslam U %g / P %g", w, u, p, gu, gp)
					}
				}
				return nil
			}},
		{name: "no baseline uses less than erms", row: "Fig. 4b",
			quote: "ordering ✓; factors smaller", tol: 0,
			check: func(c *cells, tol float64) error {
				return atMost(c, "fig4b", "erms", tol, "grandslam", "rhythm")
			}},
	}},
	"fig5": {invariant: true, claims: []claim{
		{name: "containers and cores: fcfs-sharing > non-sharing > priority", row: "Fig. 5 (§2.3)",
			quote: "FCFS 2.5 cores (25 ctrs) > non-sharing 2.3 (23) > priority 2.1 (21)", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, col := range []string{"containers", "CPU cores"} {
					f, n, p := c.num("fig5", "fcfs-sharing", col), c.num("fig5", "non-sharing", col), c.num("fig5", "priority", col)
					if !(f > n+tol && n > p+tol) {
						return fmt.Errorf("%s: fcfs-sharing %g, non-sharing %g, priority %g", col, f, n, p)
					}
				}
				return nil
			}},
		{name: "every scheme meets both 300 ms SLAs in simulation", row: "Fig. 5 (§2.3)",
			quote: "all meet both 300 ms SLAs in simulation", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("fig5") {
					v, p1, p2 := c.num("fig5", row, "violations"), c.num("fig5", row, "sim P95 svc1"), c.num("fig5", row, "sim P95 svc2")
					if !(v <= tol && p1 <= 300 && p2 <= 300) {
						return fmt.Errorf("%s: violations %g %%, P95 %g / %g ms", row, v, p1, p2)
					}
				}
				return nil
			}},
	}},
	"fig8": {invariant: true, claims: []claim{
		{name: "parallel Url and U get equal targets; T, U and C sum to the 60 ms SLA", row: "Fig. 7/8 (Alg. 1)",
			quote: "graph merge assigns equal targets to parallel {Url, U}; targets along T→{Url∥U}→C sum to the SLA",
			tol:   0.015, // three cells rounded to 0.01 ms
			check: func(c *cells, tol float64) error {
				t, u, url, cc := c.num("fig8", "T", "latency target ms"), c.num("fig8", "U", "latency target ms"),
					c.num("fig8", "Url", "latency target ms"), c.num("fig8", "C", "latency target ms")
				return holds(u == url && math.Abs(t+u+cc-60) <= tol, "T %g, U %g, Url %g, C %g", t, u, url, cc)
			}},
	}},
	"fig9": {invariant: true, claims: []claim{
		{name: "raising δ costs the high-priority service and helps the low-priority one", row: "Fig. 9",
			quote: "direction ✓", tol: 0,
			check: func(c *cells, tol float64) error {
				hi0, hi := c.num("fig9", "0.00", "high-priority P95"), c.num("fig9", "0.20", "high-priority P95")
				lo0, lo := c.num("fig9", "0.00", "low-priority P95"), c.num("fig9", "0.20", "low-priority P95")
				return holds(hi > hi0+tol && lo < lo0-tol, "δ 0 → 0.20: high %g → %g ms, low %g → %g ms", hi0, hi, lo0, lo)
			}},
	}},
	"fig10": {invariant: true, claims: []claim{
		{name: "erms trails the best black-box fit by at most 15 points on every application", row: "Fig. 10a",
			quote: "band close; Erms trails the black-box fits", tol: 15,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("fig10a") {
					e := c.num("fig10a", row, "erms")
					best := math.Max(c.num("fig10a", row, "xgboost(gbdt)"), c.num("fig10a", row, "nn-64"))
					if !(e <= best && e >= best-tol) {
						return fmt.Errorf("%s: erms %g %%, best black-box %g %%", row, e, best)
					}
				}
				return nil
			}},
		{name: "erms holds above 70 % at every fraction and beats both fits at 10 %", row: "Fig. 10b",
			quote: "Erms holds 75–85% from 10%→90% of the data; GBDT/NN collapse to 41–55% at 10%", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("fig10b") {
					if e := c.num("fig10b", row, "erms"); !(e >= 70-tol) {
						return fmt.Errorf("%s of the data: erms %g %%", row, e)
					}
				}
				e, g, n := c.num("fig10b", "10%", "erms"), c.num("fig10b", "10%", "xgboost(gbdt)"), c.num("fig10b", "10%", "nn-64")
				return holds(e > g+tol && e > n+tol, "10 %% of the data: erms %g %%, gbdt %g %%, nn %g %%", e, g, n)
			}},
	}},
	"fig11": {invariant: true, claims: []claim{
		{name: "erms's CDF is at or left of every baseline's", row: "Fig. 11a",
			quote: "baselines' CDFs right-shifted", tol: 0,
			check: func(c *cells, tol float64) error {
				return atLeast(c, "fig11a", "erms", tol, "firm", "grandslam", "rhythm")
			}},
		{name: "erms uses no more containers than any baseline on every row, so on average", row: "Fig. 11b",
			quote: "ordering ✓ everywhere", tol: 0,
			check: func(c *cells, tol float64) error {
				return atMost(c, "fig11b", "erms", tol, "firm", "grandslam", "rhythm")
			}},
	}},
	"fig12": {heavy: true, claims: []claim{
		{name: "erms has the lowest violation rate in every setting", row: "Fig. 12a",
			quote: "ordering ✓ (Erms lowest)", tol: 0,
			check: func(c *cells, tol float64) error {
				return atMost(c, "fig12a", "erms", tol, "firm", "grandslam", "rhythm")
			}},
		{name: "erms has the lowest normalized tail in every setting, below the SLA", row: "Fig. 12b",
			quote: "Erms 0.10–0.21× SLA vs 0.28–0.31× for baselines at the tight SLA", tol: 0,
			check: func(c *cells, tol float64) error {
				if err := atMost(c, "fig12b", "erms", tol, "firm", "grandslam", "rhythm"); err != nil {
					return err
				}
				return below(c, "fig12b", "erms", 1+tol)
			}},
	}},
	"fig13": {heavy: true, claims: []claim{
		{name: "erms never violates; firm breaches the SLA in some window", row: "Fig. 13",
			quote: "worst window 0.20× SLA; Firm's stale-workload plan breaches to 2.39× SLA", tol: 0,
			check: func(c *cells, tol float64) error {
				if err := below(c, "fig13b", "erms", 1+tol); err != nil {
					return err
				}
				worst := math.Inf(-1)
				for _, v := range c.column("fig13b", "firm") {
					worst = math.Max(worst, v)
				}
				return holds(worst > 1+tol, "firm's worst window %g × SLA", worst)
			}},
		{name: "erms deploys fewer containers than GrandSLAm and Rhythm on average", row: "Fig. 13",
			quote: "Erms −21% containers vs GrandSLAm/Rhythm", tol: 0,
			check: func(c *cells, tol float64) error {
				e := c.avg("fig13a", "erms")
				for _, b := range []string{"grandslam", "rhythm"} {
					if v := c.avg("fig13a", b); !(e < v-tol) {
						return fmt.Errorf("erms %.2f, %s %.2f containers on average", e, b, v)
					}
				}
				return nil
			}},
	}},
	"fig14": {invariant: true, claims: []claim{
		{name: "LTC alone beats every baseline", row: "Fig. 14a",
			quote: "ordering ✓; smaller", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, b := range []string{"firm", "grandslam", "rhythm"} {
					if v := c.num("fig14a", b, "vs erms-ltc"); !(v > tol) {
						return fmt.Errorf("%s is %+g %% vs erms-ltc", b, v)
					}
				}
				return nil
			}},
		{name: "priority saves erms at least as much as the retrofitted baselines", row: "Fig. 14b",
			quote: "ordering ✓ (Erms ≥)", tol: 0,
			check: func(c *cells, tol float64) error {
				e := c.num("fig14b", "erms", "saving")
				for _, b := range []string{"grandslam", "rhythm"} {
					if v := c.num("fig14b", b, "saving"); !(e > 0 && e >= v-tol) {
						return fmt.Errorf("erms saves %g %%, %s %g %%", e, b, v)
					}
				}
				return nil
			}},
	}},
	"fig15": {heavy: true, claims: []claim{
		{name: "K8s default needs at least 1.3× the containers of interference-aware provisioning", row: "Fig. 15a",
			quote: "interference-aware 1.0× vs K8s 1.5× (+50%) at high interference", tol: 0.3,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("fig15a") {
					e, k := c.num("fig15a", row, "erms provisioning"), c.num("fig15a", row, "k8s default")
					if !(k >= (1+tol)*e) {
						return fmt.Errorf("%s: erms %g×, k8s %g×", row, e, k)
					}
				}
				return nil
			}},
		{name: "at equal resources erms meets the SLA and K8s placement does worse", row: "Fig. 15b",
			quote: "0.14× vs 3.85× SLA at equal resources", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("fig15b") {
					e, k := c.num("fig15b", row, "erms provisioning"), c.num("fig15b", row, "k8s default")
					if !(e <= 1+tol && e < k) {
						return fmt.Errorf("%s: erms %g × SLA, k8s %g × SLA", row, e, k)
					}
				}
				return nil
			}},
	}},
	"fig16": {invariant: true, claims: []claim{
		{name: "erms's per-service CDF is at or left of every other scheme's", row: "Fig. 16a",
			quote: "Erms: 90.8% of services ≤115 ctrs", tol: 0,
			check: func(c *cells, tol float64) error {
				return atLeast(c, "fig16a", "erms", tol, "erms-ltc", "firm", "grandslam", "rhythm")
			}},
		{name: "every other scheme, LTC alone included, needs more than erms's 1.00×", row: "Fig. 16b",
			quote: "Erms 1.00×, LTC-only 2.15× (priority saves 53%)", tol: 0,
			check: func(c *cells, tol float64) error {
				if e := c.num("fig16b", "erms", "vs erms"); e != 1 {
					return fmt.Errorf("erms is %g× itself", e)
				}
				for _, s := range []string{"erms-ltc", "firm", "grandslam", "rhythm"} {
					if v := c.num("fig16b", s, "vs erms"); !(v > 1+tol) {
						return fmt.Errorf("%s needs %g× erms's containers", s, v)
					}
				}
				return nil
			}},
	}},
	"fig17": {},
	"fig18": {invariant: true, claims: []claim{
		{name: "no ordering violation; priority saves at least as much as non-sharing", row: "Thm. 1",
			quote: "0 ordering violations over 2000 random symmetric scenarios", tol: 0,
			check: func(c *cells, tol float64) error {
				n := c.num("fig18", "ordering violations", "value")
				p, s := c.num("fig18", "mean saving: priority vs FCFS", "value"), c.num("fig18", "mean saving: non-sharing vs FCFS", "value")
				return holds(n <= tol && p >= s && s >= 0, "%g violations; savings %g %% priority, %g %% non-sharing", n, p, s)
			}},
	}},
	"fig19": {invariant: true, claims: []claim{
		{name: "class-based scaling never needs more containers and saves somewhere", row: "Fig. 19 (ext.)",
			quote: "class-based scaling saves 15.2% mean (up to 48.7%) over complete-graph scaling", tol: 0,
			check: func(c *cells, tol float64) error {
				if err := atMost(c, "fig19", "class ctrs", tol, "complete ctrs"); err != nil {
					return err
				}
				saves := false
				for _, v := range c.column("fig19", "saving") {
					saves = saves || v > 0
				}
				return holds(saves, "no service saves")
			}},
	}},
	"fig20": {claims: []claim{
		{name: "partitioning keeps hot hosts empty and imbalance within 1 % of one group", row: "Fig. 20 (ext.)",
			quote: "imbalance +0.05%, hot hosts still avoided", tol: 0.01,
			check: func(c *cells, tol float64) error {
				base := c.num("fig20", "1", "imbalance")
				for _, row := range c.rows("fig20") {
					hot, imb := c.num("fig20", row, "hot-host containers"), c.num("fig20", row, "imbalance")
					if !(hot == 0 && math.Abs(imb-base) <= tol*base) {
						return fmt.Errorf("%s groups: %g hot-host containers, imbalance %g against %g", row, hot, imb, base)
					}
				}
				return nil
			}},
	}},
	"fig21": {invariant: true, claims: []claim{
		{name: "the decomposition never beats the exact optimum, and its gap grows with sharing", row: "Fig. 21 (ext.)",
			quote: "the decomposition costs +5.1% (2 services) to +18.7% (6 services) over the exact optimum", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, col := range []string{"mean gap", "p95 gap", "max gap"} {
					for _, v := range c.column("fig21", col) {
						if !(v >= -tol) {
							return fmt.Errorf("%s %g %% is negative", col, v)
						}
					}
				}
				return monotone(c, "fig21", "mean gap", +1, tol)
			}},
	}},
	"fig22": {invariant: true, claims: []claim{
		{name: "resilient erms's mean violation is below erms-naive's and firm's", row: "Fig. 22 (ext.)",
			quote: "resilient loop strictly best", tol: 0,
			check: func(c *cells, tol float64) error {
				e := c.avg("fig22a", "erms")
				for _, b := range []string{"erms-naive", "firm"} {
					if v := c.avg("fig22a", b); !(e < v-tol) {
						return fmt.Errorf("mean violation: erms %.3f, %s %.3f", e, b, v)
					}
				}
				return nil
			}},
	}},
	"fig23": {invariant: true, claims: []claim{
		{name: "the crash hurts without retries but does not kill", row: "Fig. 23 (ext.)",
			quote: "naive per-edge retries amplify a transient capacity loss", tol: 0,
			check: func(c *cells, tol float64) error {
				v := c.num("fig23", "no-retries", "violation rate")
				return holds(v > tol && v < 1-tol, "no-retries violation rate %g", v)
			}},
		{name: "unbounded retries add at least 0.05 to the violation rate", row: "Fig. 23 (ext.)",
			quote: "amplify a transient capacity loss into a much worse SLA outcome", tol: 0.05,
			check: func(c *cells, tol float64) error {
				n, u := c.num("fig23", "no-retries", "violation rate"), c.num("fig23", "unbounded-retries", "violation rate")
				return holds(u >= n+tol, "unbounded-retries %g vs no-retries %g", u, n)
			}},
		{name: "budgeted retries cost at most 0.05 over no retries", row: "Fig. 23 (ext.)",
			quote: "should cost ≈ nothing over a no-retry baseline", tol: 0.05,
			check: func(c *cells, tol float64) error {
				n, b := c.num("fig23", "no-retries", "violation rate"), c.num("fig23", "budgeted+breaker", "violation rate")
				return holds(b <= n+tol, "budgeted+breaker %g vs no-retries %g", b, n)
			}},
		{name: "budgeted retries beat unbounded ones", row: "Fig. 23 (ext.)",
			quote: "budgeted retries + circuit breaking + deadline propagation", tol: 0,
			check: func(c *cells, tol float64) error {
				u, b := c.num("fig23", "unbounded-retries", "violation rate"), c.num("fig23", "budgeted+breaker", "violation rate")
				return holds(b < u-tol, "budgeted+breaker %g vs unbounded-retries %g", b, u)
			}},
	}},
	"figDrift": {invariant: true, claims: []claim{
		{name: "both controllers stay at or below 0.05 before the shift", row: "Online profiling drift loop (figDrift)",
			quote: "both controllers meet SLAs (violation ≤ 5%) before the shift", tol: 0.05,
			check: func(c *cells, tol float64) error {
				for _, row := range c.rows("figDrift") {
					if strings.Contains(c.text("figDrift", row, "event"), "slower") {
						return holds(row != "0", "the shift lands in window 0")
					}
					f, d := c.num("figDrift", row, "frozen viol"), c.num("figDrift", row, "drift viol")
					if !(f <= tol && d <= tol) {
						return fmt.Errorf("window %s (pre-shift): frozen %g, drift %g", row, f, d)
					}
				}
				return fmt.Errorf("no shift event")
			}},
		{name: "by the last window drift is at or below 0.05 and frozen at or above 0.1", row: "Online profiling drift loop (figDrift)",
			quote: "the drift controller reconverges (violation ≤ 5% from some post-shift window onward), and the frozen controller does not (> 10% at the final window",
			tol:   0.05,
			check: func(c *cells, tol float64) error {
				rows := c.rows("figDrift")
				if len(rows) == 0 {
					return fmt.Errorf("no windows")
				}
				last := rows[len(rows)-1]
				f, d := c.num("figDrift", last, "frozen viol"), c.num("figDrift", last, "drift viol")
				return holds(d <= tol && f >= 0.1, "final window: frozen %g, drift %g", f, d)
			}},
		{name: "the drift controller swaps a model and its note says it reconverges", row: "Online profiling drift loop (figDrift)",
			quote: "re-fits from the live samples at the second, and swaps the model in", tol: 0,
			check: func(c *cells, tol float64) error {
				swaps := 0.0
				for _, v := range c.column("figDrift", "swaps") {
					swaps += v
				}
				if !(swaps >= 1) {
					return fmt.Errorf("%g model swaps", swaps)
				}
				return holds(c.hasNote("figDrift", "drift: reconverges") && !c.hasNote("figDrift", "drift: never reconverges"),
					"notes: %q", c.table("figDrift").Notes)
			}},
	}},
	"figOperator": {invariant: true, claims: []claim{
		{name: "the good push commits within 4 windows", row: "Long-running operator mode (figOperator)",
			quote: "commits within four windows of the push", tol: 4,
			check: func(c *cells, tol float64) error {
				pushed, committed := math.NaN(), math.NaN()
				for _, row := range c.rows("figOperator: rollout timeline") {
					w := c.num("figOperator: rollout timeline", row, "window")
					if math.IsNaN(pushed) && c.text("figOperator: rollout timeline", row, "cand") == "g2" {
						pushed = w
					}
					if c.text("figOperator: rollout timeline", row, "event") == "committed" {
						committed = w
					}
				}
				status := c.text("figOperator: generations", "g2", "status")
				return holds(status == "committed" && committed-pushed <= tol && c.hasNote("figOperator: generations", "promotion contract holds"),
					"g2 %s: pushed w%g, committed w%g", status, pushed, committed)
			}},
		{name: "the bad push rolls back", row: "Long-running operator mode (figOperator)",
			quote: "auto-rolls back without ever touching the fleet", tol: 0,
			check: func(c *cells, tol float64) error {
				status := c.text("figOperator: generations", "g3", "status")
				return holds(status == "rolled-back" && c.hasNote("figOperator: generations", "rollback contract holds"),
					"g3 %s; notes %q", status, c.table("figOperator: generations").Notes)
			}},
		{name: "no fleet window diverges from the run that never saw the bad push", row: "Long-running operator mode (figOperator)",
			quote: "every fleet window report from the bad push onward must be byte-identical between the two", tol: 0,
			check: func(c *cells, tol float64) error {
				return holds(c.hasNote("figOperator: generations", "isolation contract holds"),
					"notes: %q", c.table("figOperator: generations").Notes)
			}},
	}},
	"figSpec": {invariant: true, claims: []claim{
		{name: "under the flash crowd sheddable violates and sheds at least as much as critical", row: "SLO tiers under population dynamics (figSpec)",
			quote: "the sheddable tier's violation rate is at least the critical tier's, and admission control sheds more sheddable/batch than critical traffic",
			tol:   0,
			check: func(c *cells, tol float64) error {
				const crowd = "figSpec: flash crowd"
				sv, cv := c.num(crowd, "sheddable", "violation%"), c.num(crowd, "critical", "violation%")
				ss, cs := c.num(crowd, "sheddable", "shed"), c.num(crowd, "critical", "shed")
				if !(c.num(crowd, "critical", "issued") > 0 && c.num(crowd, "sheddable", "issued") > 0) {
					return fmt.Errorf("no traffic on the critical or sheddable tier")
				}
				return holds(sv >= cv-tol && ss >= cs-tol && c.hasNote(crowd, "tier contract holds"),
					"violation %g %% sheddable, %g %% critical; shed %g sheddable, %g critical", sv, cv, ss, cs)
			}},
		{name: "both example specs render, the flash crowd with all four tiers", row: "SLO tiers under population dynamics (figSpec)",
			quote: "The table reports issued/completed/slow/errors/shed and the violation rate per tier", tol: 0,
			check: func(c *cells, tol float64) error {
				for _, tier := range []string{"critical", "standard", "sheddable", "batch"} {
					c.num("figSpec: flash crowd", tier, "issued")
				}
				c.table("figSpec: regional failover")
				return nil
			}},
	}},
}

// TestFigures renders every registered quick figure, compares the render
// on one worker with the render on four where the figure is invariant
// (which also shows that a rerun reproduces it), checks its golden, and
// runs its claims on the tables.
func TestFigures(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := figures[id]; !ok {
			t.Errorf("%s is registered but has no figures entry", id)
		}
	}
	for id := range figures {
		if _, ok := registry[id]; !ok {
			t.Errorf("figures entry %s is not a registered figure", id)
		}
	}
	defer parallel.SetWorkers(0)
	for _, id := range IDs() {
		fc := figures[id]
		t.Run(id, func(t *testing.T) {
			skipHeavy(t, id)
			figureRender(t, id)
			if fc.invariant {
				checkWorkers(t, id)
			}
			if fc.invariant || fc.heavy {
				tables, out := figureRender(t, id)
				checkGolden(t, id, tables, out)
			}
			checkClaims(t, id)
		})
	}
}

// The tests below check one step of TestFigures on the figures they have
// always covered. They read the same memoized renders, so no figure renders
// twice at one worker count in a run of the package.

// TestTablesIdenticalAcrossWorkers is the parallelism determinism contract:
// seeds are assigned per flat run index and results folded back in index
// order, so worker count must never leak into the output.
func TestTablesIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, id := range []string{"fig5", "fig11", "fig14", "fig16", "fig18", "fig21"} {
		checkWorkers(t, id)
	}
}

// TestTablesStableAcrossRuns guards against map-iteration order leaking into
// the folds: a fresh render at one worker must equal the first.
func TestTablesStableAcrossRuns(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, id := range []string{"fig5", "fig16", "fig21"} {
		first, a := render(t, id, 1)
		again, b := renderFresh(t, id, 1)
		if a != b {
			t.Errorf("%s is not stable across reruns:\n%s", id, tableDelta(first, again))
		}
	}
}

// TestSimulatedFiguresGolden pins the three simulation-heavy §6 figures that
// share the evaluation testbed, rendered on four workers, to goldens
// captured on one.
func TestSimulatedFiguresGolden(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, id := range []string{"fig12", "fig13", "fig15"} {
		skipHeavy(t, id)
		tables, out := figureRender(t, id)
		checkGolden(t, id, tables, out)
	}
}

// TestFastDrivers runs the pure-planning figures end to end; render fails
// on a figure without tables or a table without rows.
func TestFastDrivers(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, id := range []string{"fig2", "fig4", "fig8", "fig11", "fig14", "fig16", "fig17", "fig18", "fig21"} {
		figureRender(t, id)
	}
}

// TestFaultTablesIdenticalAcrossWorkers extends the determinism contract to
// the chaos experiment: the fault schedule, every injection and all three
// control loops give byte-identical tables at any worker count.
func TestFaultTablesIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	tables, out := figureRender(t, "fig22")
	checkGolden(t, "fig22", tables, out)
	checkWorkers(t, "fig22")
}

// TestResilientBeatsNaiveUnderFaults is the fault model's acceptance
// criterion: fig22's claims, resilient erms strictly below erms-naive.
func TestResilientBeatsNaiveUnderFaults(t *testing.T) {
	defer parallel.SetWorkers(0)
	checkClaims(t, "fig22")
}

// TestFig23IdenticalAcrossWorkers is the determinism gate for the resilience
// data plane.
func TestFig23IdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	checkWorkers(t, "fig23")
}

// TestFig23RetryStormOrdering pins the retry-storm result: one table of the
// three variants, and fig23's claims on it.
func TestFig23RetryStormOrdering(t *testing.T) {
	defer parallel.SetWorkers(0)
	tables, _ := figureRender(t, "fig23")
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("fig23 has %d tables, want 1 with 3 rows", len(tables))
	}
	checkClaims(t, "fig23")
}

// TestFigOperatorContract is the operator acceptance gate: figOperator's
// promotion, rollback and isolation claims.
func TestFigOperatorContract(t *testing.T) {
	defer parallel.SetWorkers(0)
	checkClaims(t, "figOperator")
}

// TestFigOperatorDeterministicAcrossWorkers: the operator loop, canary
// sandbox and rollout decisions are a pure function of (specs, pushes,
// windows), and the render carries all three contract notes.
func TestFigOperatorDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	tables, out := figureRender(t, "figOperator")
	checkGolden(t, "figOperator", tables, out)
	checkWorkers(t, "figOperator")
	for _, want := range []string{"promotion contract holds", "rollback contract holds", "isolation contract holds"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestFigSpecTierContract is the SLO-tier acceptance gate: figSpec's claims,
// sheddable traffic sacrificed before critical under the flash crowd.
func TestFigSpecTierContract(t *testing.T) {
	defer parallel.SetWorkers(0)
	checkClaims(t, "figSpec")
}

// TestFigSpecRenders checks figSpec's golden and that its render holds both
// tables, every tier and the tier-contract note.
func TestFigSpecRenders(t *testing.T) {
	defer parallel.SetWorkers(0)
	tables, out := figureRender(t, "figSpec")
	checkGolden(t, "figSpec", tables, out)
	for _, want := range []string{"flash crowd", "regional failover", "tier contract holds", "critical", "standard", "sheddable", "batch"} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing from output:\n%s", want, out)
		}
	}
	if len(tables) != 2 {
		t.Errorf("figSpec rendered %d tables, want 2", len(tables))
	}
}

// skipHeavy skips a heavy figure under -race and -short.
func skipHeavy(t *testing.T, id string) {
	t.Helper()
	if figures[id].heavy && (testing.Short() || raceEnabled) {
		t.Skip("tens of seconds of simulation")
	}
}

// figureRender is the render the harness checks a figure by: on one
// worker, or on four for a heavy figure.
func figureRender(t *testing.T, id string) ([]*Table, string) {
	t.Helper()
	if figures[id].heavy {
		return render(t, id, 4)
	}
	return render(t, id, 1)
}

// checkWorkers compares a figure's render on one worker with its render on
// four.
func checkWorkers(t *testing.T, id string) {
	t.Helper()
	tables, out := render(t, id, 1)
	if again, par := render(t, id, 4); par != out {
		t.Errorf("%s differs between workers=1 and workers=4:\n%s", id, tableDelta(tables, again))
	}
}

// checkClaims runs a figure's claims on its tables.
func checkClaims(t *testing.T, id string) {
	t.Helper()
	tables, _ := figureRender(t, id)
	for _, cl := range figures[id].claims {
		c := &cells{tables: tables}
		err := cl.check(c, cl.tol)
		if c.err != nil {
			err = c.err
		}
		if err != nil {
			t.Errorf("claim %q (%s: %q, tolerance %g): %v", cl.name, cl.row, cl.quote, cl.tol, err)
		}
	}
}

// rendered memoizes render by figure and worker count for the life of the
// test binary (so -count=N renders each once); a reader must not modify
// the tables.
var rendered = map[string]figureOutput{}

type figureOutput struct {
	tables []*Table
	out    string
}

// render returns a figure's memoized render on the given number of workers.
func render(t *testing.T, id string, workers int) ([]*Table, string) {
	t.Helper()
	key := fmt.Sprintf("%s/%d", id, workers)
	if r, ok := rendered[key]; ok {
		return r.tables, r.out
	}
	tables, out := renderFresh(t, id, workers)
	rendered[key] = figureOutput{tables, out}
	return tables, out
}

// renderFresh runs one figure on the given number of workers and renders
// its tables, each of which must have rows.
func renderFresh(t *testing.T, id string, workers int) ([]*Table, string) {
	t.Helper()
	parallel.SetWorkers(workers)
	tables, err := Run(id, true)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var sb strings.Builder
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s/%s has no rows", id, tab.ID)
		}
		tab.Fprint(&sb)
	}
	return tables, sb.String()
}

// TestVerdictRowsCovered holds EXPERIMENTS' verdict table to the claims:
// every row has a claim or a proseOnly entry (never both, never an entry
// for a row that is gone), and every claim quotes its row, or the section
// of a figure without one, verbatim up to whitespace.
func TestVerdictRowsCovered(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, sections := verdictRows(string(doc))
	if len(rows) == 0 {
		t.Fatal("no verdict table in EXPERIMENTS.md")
	}
	claimed := map[string]int{}
	total := 0
	for id, fc := range figures {
		for _, cl := range fc.claims {
			text, ok := rows[cl.row]
			if ok {
				claimed[cl.row]++
				total++
			} else if text, ok = sections[cl.row]; !ok {
				t.Errorf("%s claim %q names %q, neither a verdict row nor a section", id, cl.name, cl.row)
				continue
			}
			if !strings.Contains(squash(text), squash(cl.quote)) {
				t.Errorf("%s claim %q quotes %q, which %q does not say", id, cl.name, cl.quote, cl.row)
			}
		}
	}
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		reason, prose := proseOnly[id]
		switch {
		case claimed[id] == 0 && !prose:
			t.Errorf("verdict row %q has no claim and no proseOnly entry", id)
		case claimed[id] > 0 && prose:
			t.Errorf("verdict row %q has claims, so its proseOnly entry (%s) is stale", id, reason)
		}
	}
	for id := range proseOnly {
		if _, ok := rows[id]; !ok {
			t.Errorf("proseOnly entry %q names no verdict row", id)
		}
	}
	t.Logf("verdict claims: %d over %d EXPERIMENTS rows (%d prose-only)", total, len(rows), len(proseOnly))
}

// verdictRows splits EXPERIMENTS.md into its verdict-table rows, keyed by
// their ID cell, and its sections, keyed by heading.
func verdictRows(doc string) (rows, sections map[string]string) {
	rows, sections = map[string]string{}, map[string]string{}
	inTable, heading := false, ""
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			inTable, heading = false, strings.TrimPrefix(line, "## ")
		case strings.HasPrefix(line, "| ID | Paper result |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "|---"):
			rows[strings.TrimSpace(strings.Split(line, "|")[1])] = line
		}
		if heading != "" {
			sections[heading] += line + "\n"
		}
	}
	return rows, sections
}

// squash collapses every run of whitespace to one space.
func squash(s string) string { return strings.Join(strings.Fields(s), " ") }

// holds returns nil when ok, and the formatted failure otherwise.
func holds(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// atMost checks that on every row of table col is at most each of others,
// plus tol.
func atMost(c *cells, table, col string, tol float64, others ...string) error {
	for _, row := range c.rows(table) {
		v := c.num(table, row, col)
		for _, o := range others {
			if w := c.num(table, row, o); !(v <= w+tol) {
				return fmt.Errorf("%s: %s %g above %s %g", row, col, v, o, w)
			}
		}
	}
	return nil
}

// atLeast checks that on every row of table col is at least each of
// others, minus tol.
func atLeast(c *cells, table, col string, tol float64, others ...string) error {
	for _, row := range c.rows(table) {
		v := c.num(table, row, col)
		for _, o := range others {
			if w := c.num(table, row, o); !(v >= w-tol) {
				return fmt.Errorf("%s: %s %g below %s %g", row, col, v, o, w)
			}
		}
	}
	return nil
}

// below checks that every cell of a column is at most bound.
func below(c *cells, table, col string, bound float64) error {
	for i, v := range c.column(table, col) {
		if !(v <= bound) {
			return fmt.Errorf("%s row %d: %s %g above %g", table, i, col, v, bound)
		}
	}
	return nil
}

// monotone checks that a column moves in one direction down the rows:
// with dir +1 it never falls, with dir -1 it never rises, by more than tol.
func monotone(c *cells, table, col string, dir, tol float64) error {
	vs := c.column(table, col)
	for i := 1; i < len(vs); i++ {
		if !(dir*(vs[i]-vs[i-1]) >= -tol) {
			return fmt.Errorf("%s: %s moves from %g to %g at row %d", table, col, vs[i-1], vs[i], i)
		}
	}
	return nil
}

// cells reads a figure's tables by table key, row key and column name. The
// first read that fails is kept in err and every read returns NaN or ""
// after it, so a claim reads what it needs and compares without checking
// each read; TestFigures reports err in place of the claim's verdict.
type cells struct {
	tables []*Table
	err    error
}

func (c *cells) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// table returns the one table whose ID is key or whose "ID: Title" starts
// with key.
func (c *cells) table(key string) *Table {
	var found *Table
	for _, tab := range c.tables {
		if tab.ID == key || strings.HasPrefix(tab.ID+": "+tab.Title, key) {
			if found != nil {
				c.fail("table %q is ambiguous", key)
				return nil
			}
			found = tab
		}
	}
	if found == nil {
		c.fail("no table %q", key)
	}
	return found
}

// rows returns the first cell of each row of a table.
func (c *cells) rows(table string) []string {
	tab := c.table(table)
	if tab == nil {
		return nil
	}
	keys := make([]string, len(tab.Rows))
	for i, row := range tab.Rows {
		keys[i] = row[0]
	}
	return keys
}

// text returns one cell. A row's key is its first cell or, where that
// repeats, its leading cells joined by "/".
func (c *cells) text(table, row, col string) string {
	tab := c.table(table)
	if tab == nil || c.err != nil {
		return ""
	}
	ci := -1
	for i, h := range tab.Header {
		if h == col {
			ci = i
		}
	}
	var found []string
	for _, r := range tab.Rows {
		for k := 1; k <= len(r); k++ {
			if strings.Join(r[:k], "/") == row {
				if found != nil {
					c.fail("%s: row %q is ambiguous", table, row)
					return ""
				}
				found = r
				break
			}
		}
	}
	switch {
	case ci < 0:
		c.fail("%s has no column %q (header %q)", table, col, tab.Header)
	case found == nil:
		c.fail("%s has no row %q", table, row)
	case ci >= len(found):
		c.fail("%s: row %q has no cell in column %q", table, row, col)
	default:
		return found[ci]
	}
	return ""
}

// num reads one cell as a number.
func (c *cells) num(table, row, col string) float64 {
	s := c.text(table, row, col)
	if c.err != nil {
		return math.NaN()
	}
	v, ok := cellValue(s)
	if !ok {
		c.fail("%s/%s/%s: %q is not a number", table, row, col, s)
		return math.NaN()
	}
	return v
}

// column reads a column of every row as numbers.
func (c *cells) column(table, col string) []float64 {
	rows := c.rows(table)
	vs := make([]float64, len(rows))
	for i, row := range rows {
		vs[i] = c.num(table, row, col)
	}
	return vs
}

// avg is the mean of a column.
func (c *cells) avg(table, col string) float64 {
	vs := c.column(table, col)
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// hasNote reports whether a note of the table contains substr.
func (c *cells) hasNote(table, substr string) bool {
	tab := c.table(table)
	if tab == nil {
		return false
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}

// cellValue reads a rendered cell as a number, without the unit and marker
// suffixes the figures append: "%", "x" (a factor), "*" (a degraded window)
// and "!" (an outage window).
func cellValue(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimRight(s, "%x*!"), 64)
	return v, err == nil
}
