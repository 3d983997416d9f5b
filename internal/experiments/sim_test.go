package experiments

import (
	"strings"
	"testing"

	"erms/internal/parallel"
)

// TestFigSimDeterministicAcrossWorkers pins the figSim contract: the
// deterministic table (partition count, exact bit-identity across
// Partitions settings, hybrid fidelity and conservation columns) is
// byte-identical whether the partition fan-out runs on one worker or four.
// The wall-clock companion table is masked out, like figShard's.
func TestFigSimDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	w1 := renderDeterministic(t, "figSim")
	parallel.SetWorkers(4)
	w4 := renderDeterministic(t, "figSim")
	if w1 != w4 {
		t.Errorf("figSim differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", w1, w4)
	}
	if !strings.Contains(w1, "true") || strings.Contains(w1, "false") {
		t.Errorf("figSim: a determinism or fidelity gate column reads false:\n%s", w1)
	}
}

// TestFigSimStableAcrossRuns guards the hybrid engine against map-iteration
// order leaking into the fidelity columns.
func TestFigSimStableAcrossRuns(t *testing.T) {
	a := renderDeterministic(t, "figSim")
	b := renderDeterministic(t, "figSim")
	if a != b {
		t.Errorf("figSim is not stable across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
