package experiments

import (
	"math"
	"strings"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/workload"
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

func TestHelpers(t *testing.T) {
	app := apps.HotelReservation()
	bg := workload.Interference{CPU: 0.3, Mem: 0.3}
	pc, slaMs := settingContext(app, 1000, 1, bg)
	models := pc.models
	if len(models) != len(app.Microservices()) {
		t.Fatal("models incomplete")
	}
	cl := cluster.NewPaperCluster()
	shares := sharesFor(app, cl)
	for ms, r := range shares {
		if r <= 0 {
			t.Fatalf("share for %s = %v", ms, r)
		}
	}
	if pc.loads["search"]["frontend"] != 1000 {
		t.Fatalf("loads = %v", pc.loads["search"])
	}
	floor := appSLAFloor(app, models, 0.3, 0.3)
	if floor <= 0 || slaMs != floor || pc.slas["search"].Threshold != floor {
		t.Fatalf("floor = %v, setting SLA %v, search SLA %v", floor, slaMs, pc.slas["search"].Threshold)
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
