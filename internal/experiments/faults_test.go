package experiments

import (
	"strconv"
	"strings"
	"testing"

	"erms/internal/parallel"
)

// TestFaultTablesIdenticalAcrossWorkers extends the determinism contract to
// the chaos experiment: the fault schedule, every injection, and all three
// control loops must produce byte-identical tables at any worker count.
func TestFaultTablesIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)

	parallel.SetWorkers(1)
	sequential := renderAll(t, "fig22")
	checkGolden(t, "fig22", sequential)
	parallel.SetWorkers(4)
	if got := renderAll(t, "fig22"); got != sequential {
		t.Errorf("fig22 differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			sequential, got)
	}
}

// TestResilientBeatsNaiveUnderFaults is the acceptance criterion of the fault
// model: under the standard chaos schedule the resilient loop's mean SLA
// violation probability must be strictly below the naive loop's.
func TestResilientBeatsNaiveUnderFaults(t *testing.T) {
	tables, err := Run("fig22", true)
	if err != nil {
		t.Fatal(err)
	}
	viol := tables[0]
	col := func(name string) int {
		for i, h := range viol.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q in %v", name, viol.Header)
		return -1
	}
	mean := func(c int) float64 {
		var s float64
		for _, row := range viol.Rows {
			cell := strings.TrimRight(row[c], "*!")
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q: %v", row[c], err)
			}
			s += v
		}
		return s / float64(len(viol.Rows))
	}
	erms, naive := mean(col("erms")), mean(col("erms-naive"))
	if erms >= naive {
		t.Fatalf("resilient erms (%.3f) not strictly below naive (%.3f)", erms, naive)
	}
}
