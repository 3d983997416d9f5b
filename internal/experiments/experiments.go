// Package experiments contains one driver per table/figure of the paper's
// evaluation (§2, §6). Each driver regenerates the corresponding data series
// — who wins, by what factor, where crossovers fall — against this repo's
// simulated substrate. The cmd/experiments CLI runs them; this package's
// tests pin their quick tables against goldens under testdata.
//
// Every driver accepts a quick flag: quick runs shrink simulation time and
// sweep sizes to keep the tests and `cmd/experiments -quick` snappy; full
// runs (the CLI default) use larger sweeps.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"erms/internal/apps"
	"erms/internal/baselines"
	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/sortutil"
)

// Table is one regenerated figure/table: a header, rows, and notes recording
// paper-vs-measured observations.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FprintMarkdown renders the table as GitHub-flavoured markdown.
func (t *Table) FprintMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as CSV (header row first, notes as comments).
func (t *Table) FprintCSV(w io.Writer) {
	quote := func(cols []string) string {
		out := make([]string, len(cols))
		for i, c := range cols {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		return strings.Join(out, ",")
	}
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	fmt.Fprintln(w, quote(t.Header))
	for _, row := range t.Rows {
		fmt.Fprintln(w, quote(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Driver regenerates one figure.
type Driver func(quick bool) []*Table

// registry maps experiment IDs to drivers. Populated in init() functions of
// the per-figure files.
var registry = map[string]Driver{}

// register installs a driver under an ID (panics on duplicates; IDs are
// compile-time constants).
func register(id string, d Driver) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = d
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	return sortutil.Keys(registry)
}

// Run executes one experiment by ID.
func Run(id string, quick bool) ([]*Table, error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return d(quick), nil
}

// --- shared scaffolding -------------------------------------------------

// sharesFor computes each microservice's dominant resource share on the
// paper cluster geometry.
func sharesFor(app *apps.App, cl *cluster.Cluster) map[string]float64 {
	out := make(map[string]float64, len(app.Containers))
	for ms, spec := range app.Containers {
		out[ms] = cl.DominantShare(spec)
	}
	return out
}

// slaFloor returns the smallest SLA threshold with positive slack for a
// service: the heaviest-path sum of model intercepts (low interval, at the
// given utilization), which no allocation can beat.
func slaFloor(app *apps.App, svc string, models map[string]profiling.Model, cpu, mem float64) float64 {
	g := app.Graph(svc)
	return g.EndToEnd(func(n *graph.Node) float64 {
		_, b := models[n.Microservice].Params(false, cpu, mem)
		return b
	})
}

// appSLAFloor returns the max slaFloor across an app's services.
func appSLAFloor(app *apps.App, models map[string]profiling.Model, cpu, mem float64) float64 {
	worst := 0.0
	for _, svc := range app.Services() {
		if f := slaFloor(app, svc, models, cpu, mem); f > worst {
			worst = f
		}
	}
	return worst
}

// statsFor derives the mean/variance/correlation statistics GrandSLAm and
// Rhythm consume by sweeping each microservice's model over a workload grid
// at idle interference — the "profiled statistics" of those systems, which
// by design ignore workload- and interference-dependence.
func statsFor(app *apps.App, models map[string]profiling.Model) map[string]baselines.MSStats {
	out := make(map[string]baselines.MSStats, len(app.Profiles))
	for ms := range app.Profiles {
		m := models[ms]
		knee := m.Knee(0, 0)
		var lat []float64
		for _, f := range []float64{0.2, 0.4, 0.6, 0.8, 0.95, 1.05, 1.15} {
			lat = append(lat, m.Predict(knee*f, 0, 0))
		}
		mean, variance := meanVar(lat)
		out[ms] = baselines.MSStats{MeanMs: mean, VarMs: variance, CorrE2E: 0.5 + 0.5*clamp01(mean/10)}
	}
	return out
}

func meanVar(xs []float64) (float64, float64) {
	var s float64
	for _, x := range xs {
		s += x
	}
	m := s / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return m, v / float64(len(xs))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
