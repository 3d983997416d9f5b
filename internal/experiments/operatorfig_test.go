package experiments

import (
	"strings"
	"testing"

	"erms/internal/operator"
	"erms/internal/parallel"
)

// TestFigOperatorContract is the operator acceptance gate: the benign push
// must commit within the rollout horizon, the bad push must auto-roll back,
// and the bad push must leave zero fleet-wide regression — every fleet
// window from its push onward byte-identical to a trajectory without it.
func TestFigOperatorContract(t *testing.T) {
	res, err := runOperatorScenario()
	if err != nil {
		t.Fatal(err)
	}
	if res.goodGen.Status != operator.StatusCommitted {
		t.Errorf("good push = %+v, want committed", res.goodGen)
	}
	if windows := res.goodGen.DecidedWindow - res.goodGen.PushedWindow; windows > 4 {
		t.Errorf("good push took %d windows to commit, want <= 4 (canary 2 + promote/soak)", windows)
	}
	if !res.badRolled {
		t.Errorf("bad push = %+v, want rolled-back", res.badGen)
	}
	if res.mismatch != 0 {
		t.Errorf("%d/%d fleet windows diverged from the bad-push-free control", res.mismatch, res.compared)
	}
}

// TestFigOperatorDeterministicAcrossWorkers: the rendered tables must be
// byte-identical at any worker count — the operator loop, canary sandbox,
// and rollout decisions are a pure function of (specs, pushes, windows).
func TestFigOperatorDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	seq := renderAll(t, "figOperator")
	checkGolden(t, "figOperator", seq)
	parallel.SetWorkers(4)
	if par := renderAll(t, "figOperator"); par != seq {
		t.Errorf("figOperator differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	for _, want := range []string{"promotion contract holds", "rollback contract holds", "isolation contract holds"} {
		if !strings.Contains(seq, want) {
			t.Errorf("missing %q in:\n%s", want, seq)
		}
	}
}
