package experiments

import (
	"strconv"
	"strings"
	"testing"

	"erms/internal/parallel"
)

// TestFigDrift is both the determinism gate and the reconvergence assertion
// for the drift experiment: the table must be byte-identical at workers 1
// and 4 (the detector consults no clocks or RNGs), the drift-enabled
// controller must reconverge after the mid-run service-time shift, and the
// frozen controller must not.
func TestFigDrift(t *testing.T) {
	defer parallel.SetWorkers(0)

	parallel.SetWorkers(1)
	tabs, err := Run("figDrift", true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range tabs {
		tab.Fprint(&sb)
	}
	seq := sb.String()
	checkGolden(t, "figDrift", seq)
	parallel.SetWorkers(4)
	if par := renderAll(t, "figDrift"); par != seq {
		t.Errorf("figDrift differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	tab := tabs[0]
	// Columns: window, req/min, event, frozen viol, frozen containers,
	// drift viol, drift containers, swaps.
	col := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, i, err)
		}
		return v
	}
	injectAt := -1
	for w, row := range tab.Rows {
		if strings.Contains(row[2], "slower") {
			injectAt = w
			break
		}
	}
	if injectAt <= 0 {
		t.Fatalf("no injection event in table: %+v", tab.Rows)
	}
	swaps := 0.0
	for w, row := range tab.Rows {
		frozen, drifted := col(row, 3), col(row, 5)
		swaps += col(row, 7)
		switch {
		case w < injectAt:
			// Pre-shift both controllers meet SLAs.
			if frozen > 0.05 || drifted > 0.05 {
				t.Errorf("window %d (pre-shift): frozen %.3f drift %.3f, want both <= 0.05", w, frozen, drifted)
			}
		case w == len(tab.Rows)-1:
			// By the last window the drift controller has reconverged and
			// the frozen controller is still violating.
			if drifted > 0.05 {
				t.Errorf("final window: drift controller still violating (%.3f)", drifted)
			}
			if frozen < 0.1 {
				t.Errorf("final window: frozen controller at %.3f — the shift no longer hurts, experiment lost its contrast", frozen)
			}
		}
	}
	if swaps < 1 {
		t.Error("drift controller never swapped a model")
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "drift: reconverges") {
			found = true
		}
		if strings.Contains(n, "drift: never reconverges") {
			t.Errorf("note says drift never reconverged: %s", n)
		}
	}
	if !found {
		t.Errorf("missing reconvergence note: %v", tab.Notes)
	}
}
