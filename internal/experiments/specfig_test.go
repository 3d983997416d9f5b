package experiments

import (
	"strings"
	"testing"

	"erms/examples/specs"
	"erms/internal/spec"
	"erms/internal/workload"
)

// TestFigSpecTierContract is the SLO-tier acceptance gate: under the
// flash-crowd spec, the sheddable tier's violation rate must be at least the
// critical tier's — admission control has to sacrifice sheddable traffic
// before critical traffic.
func TestFigSpecTierContract(t *testing.T) {
	s, err := spec.Parse(specs.Read("flashcrowd.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	s.TimeScale = 3 // quick-mode compression, same as FigSpec(quick=true)
	sc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	crit := res.Totals[workload.TierCritical]
	shed := res.Totals[workload.TierSheddable]
	if crit.Issued == 0 || shed.Issued == 0 {
		t.Fatalf("expected traffic on critical and sheddable tiers, got %+v / %+v", crit, shed)
	}
	if shed.ViolationRate() < crit.ViolationRate() {
		t.Errorf("tier contract violated: sheddable violation rate %.3f < critical %.3f",
			shed.ViolationRate(), crit.ViolationRate())
	}
	if shed.Shed < crit.Shed {
		t.Errorf("admission control shed more critical (%d) than sheddable (%d) requests", crit.Shed, shed.Shed)
	}
}

// TestFigSpecRenders runs the driver end to end and sanity-checks the table
// shape and the embedded tier-contract note.
func TestFigSpecRenders(t *testing.T) {
	out := renderAll(t, "figSpec")
	checkGolden(t, "figSpec", out)
	if !strings.Contains(out, "flash crowd") || !strings.Contains(out, "regional failover") {
		t.Fatalf("missing tables:\n%s", out)
	}
	if !strings.Contains(out, "tier contract holds") {
		t.Errorf("tier-contract note missing or violated:\n%s", out)
	}
	for _, tier := range []string{"critical", "standard", "sheddable", "batch"} {
		if !strings.Contains(out, tier) {
			t.Errorf("tier %s missing from output:\n%s", tier, out)
		}
	}
	if strings.Count(out, "figSpec") < 2 {
		t.Errorf("expected two figSpec tables:\n%s", out)
	}
}
