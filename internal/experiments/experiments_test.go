package experiments

import (
	"math"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
)

// TestRegistryComplete pins the registry to the figures: every one is
// registered, and nothing else is. A layer's speed belongs in bench/ and
// scripts/bench.sh, its invariants in its package's tests.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig2", "fig20", "fig21", "fig22",
		"fig23", "fig3", "fig4", "fig5", "fig8", "fig9",
		"figDrift", "figOperator", "figSpec"}
	if ids := IDs(); strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("registered experiments %v, want %v", ids, want)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", true); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 7)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"x: demo", "a", "bb", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestFastDrivers exercises the pure-planning experiments end to end (the
// simulation-heavy ones are covered by the bench harness).
func TestFastDrivers(t *testing.T) {
	for _, id := range []string{"fig2", "fig4", "fig8", "fig11", "fig14", "fig16", "fig17", "fig18", "fig21"} {
		tables, err := Run(id, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s/%s has no rows", id, tab.ID)
			}
		}
	}
}

func TestFig11ErmsWinsOnAverage(t *testing.T) {
	// The core §6.3 claim in plan space: Erms deploys fewer containers than
	// every baseline averaged over the sweep.
	settings := staticSettings(true)
	planners := defaultPlanners()
	sums := map[string]float64{}
	for _, s := range settings {
		for _, p := range planners {
			total, err := planSetting(p, s)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			sums[p.name] += float64(total)
		}
	}
	for name, sum := range sums {
		if name == "erms" {
			continue
		}
		if sums["erms"] > sum {
			t.Fatalf("erms (%v) uses more containers than %s (%v)", sums["erms"], name, sum)
		}
	}
}

func TestFig16PriorityBeatsLTC(t *testing.T) {
	tables, err := Run("fig16", true)
	if err != nil {
		t.Fatal(err)
	}
	// fig16b: erms row is 1.00x, erms-ltc must exceed it.
	var b *Table
	for _, tab := range tables {
		if tab.ID == "fig16b" {
			b = tab
		}
	}
	if b == nil {
		t.Fatal("no fig16b table")
	}
	var erms, ltc string
	for _, row := range b.Rows {
		switch row[0] {
		case "erms":
			erms = row[1]
		case "erms-ltc":
			ltc = row[1]
		}
	}
	if erms == "" || ltc == "" {
		t.Fatalf("rows missing: %v", b.Rows)
	}
}

func TestHelpers(t *testing.T) {
	app := apps.HotelReservation()
	models := modelsFor(app, cluster.DefaultInterference)
	if len(models) != len(app.Microservices()) {
		t.Fatal("modelsFor incomplete")
	}
	cl := cluster.NewPaperCluster()
	shares := sharesFor(app, cl)
	for ms, r := range shares {
		if r <= 0 {
			t.Fatalf("share for %s = %v", ms, r)
		}
	}
	loads := loadsFor(app, uniformRates(app, 1000))
	if loads["search"]["frontend"] != 1000 {
		t.Fatalf("loads = %v", loads["search"])
	}
	floor := appSLAFloor(app, models, 0.3, 0.3)
	if floor <= 0 {
		t.Fatalf("floor = %v", floor)
	}
	// Floor rises with interference.
	if hot := appSLAFloor(app, models, 0.7, 0.7); hot <= floor {
		t.Fatalf("floor should rise with interference: %v vs %v", hot, floor)
	}
	st := statsFor(app, models)
	for ms, v := range st {
		if v.MeanMs <= 0 || v.VarMs < 0 {
			t.Fatalf("stats for %s: %+v", ms, v)
		}
	}
}

func TestTableFormats(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "two, quoted")
	tab.AddNote("note")
	var md, csv strings.Builder
	tab.FprintMarkdown(&md)
	if !strings.Contains(md.String(), "| a | b |") || !strings.Contains(md.String(), "> note") {
		t.Fatalf("markdown:\n%s", md.String())
	}
	tab.FprintCSV(&csv)
	if !strings.Contains(csv.String(), `"two, quoted"`) {
		t.Fatalf("csv:\n%s", csv.String())
	}
}

// TestFoldsAreBitStable calls the per-service folds of figs 12, 13, 15, 22
// and figDrift 100 times on values whose float sum depends on the order of
// its terms (1e16 + 1 − 1e16 + 1 is 0, 1 or 2 by order), and requires the
// same bit pattern every time: a fold in map order fails with near
// certainty.
func TestFoldsAreBitStable(t *testing.T) {
	v := map[string]float64{"a": 1e16, "b": 1, "c": -1e16, "d": 1}
	same := func(x float64) (float64, float64) { return x, x }
	mean, tb := meanViolation(v), foldTestbed(v, same)
	for i := 0; i < 100; i++ {
		if got := meanViolation(v); math.Float64bits(got) != math.Float64bits(mean) {
			t.Fatalf("meanViolation: %v, then %v", mean, got)
		}
		got := foldTestbed(v, same)
		if math.Float64bits(got.viol) != math.Float64bits(tb.viol) ||
			math.Float64bits(got.tail) != math.Float64bits(tb.tail) {
			t.Fatalf("foldTestbed: %+v, then %+v", tb, got)
		}
	}
}
