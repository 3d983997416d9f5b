package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"erms/internal/parallel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// checkGolden compares a figure's rendered quick-mode tables with
// testdata/<id>.golden byte for byte. The files were captured before the
// window loop, the simulator entry and the experiment testbed were unified
// (PR 16) and pin those refactors as pure: `go test ./internal/experiments
// -run <test> -update` rewrites one — only for an intended behaviour change.
// Callers pass output they render anyway, so no figure runs an extra time.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got ---\n%s\n--- want ---\n%s", id, path, got, want)
	}
}

// renderAll runs one experiment and renders every table to text.
func renderAll(t *testing.T, id string) string {
	t.Helper()
	tables, err := Run(id, true)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		tab.Fprint(&sb)
	}
	return sb.String()
}

// TestTablesIdenticalAcrossWorkers is the parallelism determinism contract:
// every experiment table must be byte-identical whether the independent runs
// execute on one worker or many. Seeds are assigned per flat run index and
// results folded back in index order, so worker count must never leak into
// the output. fig17/fig20 are excluded: their tables contain wall-clock
// columns and are sequential by design.
func TestTablesIdenticalAcrossWorkers(t *testing.T) {
	ids := []string{"fig5", "fig11", "fig14", "fig16", "fig18", "fig21"}
	defer parallel.SetWorkers(0)

	parallel.SetWorkers(1)
	sequential := make(map[string]string, len(ids))
	for _, id := range ids {
		sequential[id] = renderAll(t, id)
	}

	parallel.SetWorkers(4)
	for _, id := range ids {
		if got := renderAll(t, id); got != sequential[id] {
			t.Errorf("%s differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				id, sequential[id], got)
		}
	}
}

// TestSimulatedFiguresGolden runs the three simulation-heavy §6 figures that
// share the evaluation testbed once each, on four workers, against goldens
// captured on one: a pass is both the worker-count determinism contract and
// the byte-identity of the testbed helper with the three copies it replaced.
// fig15 is sequential by design; its golden pins the refactor only.
func TestSimulatedFiguresGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Under the detector the three figures take ~5 minutes and push the
		// package past go test's 10-minute default; the worker pool they fan
		// out on is raced by the cheaper figures' tests, and each testbed run
		// owns its cluster.
		t.Skip("~35 s of simulation")
	}
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(4)
	for _, id := range []string{"fig12", "fig13", "fig15"} {
		checkGolden(t, id, renderAll(t, id))
	}
}

// TestTablesStableAcrossRuns guards against map-iteration order leaking into
// the folds: the same driver run twice at the same worker count must agree.
func TestTablesStableAcrossRuns(t *testing.T) {
	for _, id := range []string{"fig5", "fig16", "fig21"} {
		a := renderAll(t, id)
		b := renderAll(t, id)
		if a != b {
			t.Errorf("%s is not stable across reruns:\n--- first ---\n%s\n--- second ---\n%s", id, a, b)
		}
	}
}

// renderDeterministic renders only a driver's deterministic tables, dropping
// any whose ID marks them as wall-clock (the "-time" suffix).
func renderDeterministic(t *testing.T, id string) string {
	t.Helper()
	tables, err := Run(id, true)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		if strings.HasSuffix(tab.ID, "-time") {
			continue
		}
		tab.Fprint(&sb)
	}
	return sb.String()
}

// TestFigScaleDeterministicAcrossWorkers pins the figScale contract: the
// deterministic table (topology shape, plan size, naive-vs-compiled
// bit-identity) is byte-identical whether the parallel planner runs on one
// worker or four. The wall-clock companion table is masked out, as fig17 and
// fig20 are excluded from TestTablesIdenticalAcrossWorkers.
func TestFigScaleDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	w1 := renderDeterministic(t, "figScale")
	parallel.SetWorkers(4)
	w4 := renderDeterministic(t, "figScale")
	if w1 != w4 {
		t.Errorf("figScale differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", w1, w4)
	}
	if !strings.Contains(w1, "true") || strings.Contains(w1, "false") {
		t.Errorf("figScale: compiled plans not bit-identical to naive:\n%s", w1)
	}
}

// TestFigShardDeterministicAcrossWorkers pins the figShard contract: the
// deterministic table (topology shape, skip/dirty counters, incremental
// shards=1 and shards=4 bit-identity against the monolithic planner) is
// byte-identical whether the shard fan-out runs on one worker or four, and
// every bit-identity column reads true.
func TestFigShardDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	w1 := renderDeterministic(t, "figShard")
	parallel.SetWorkers(4)
	w4 := renderDeterministic(t, "figShard")
	if w1 != w4 {
		t.Errorf("figShard differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", w1, w4)
	}
	if !strings.Contains(w1, "true") || strings.Contains(w1, "false") {
		t.Errorf("figShard: incremental plans not bit-identical to monolithic:\n%s", w1)
	}
}
