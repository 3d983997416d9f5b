package erms

import (
	"encoding/json"
	"testing"

	"erms/internal/core"
	"erms/internal/parallel"
)

// planEvalJSON plans and evaluates the Hotel application at a fixed seed and
// returns both results as canonical JSON.
func planEvalJSON(t *testing.T, seed uint64) (planJS, evalJS string) {
	t.Helper()
	sys, err := NewSystem(HotelReservation())
	if err != nil {
		t.Fatal(err)
	}
	sys.UseAnalyticModels()
	rates := hotelRates(25_000)
	plan, err := sys.Plan(rates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Evaluate(plan, rates, 0.5, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(pb), string(rb)
}

// TestEvaluateDeterministicAcrossWorkers pins the end-to-end determinism
// contract at the public API: the same seed must produce a byte-identical
// plan (Plan fans out per-service decomposition) and byte-identical
// EvalResult regardless of the parallel worker count.
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)

	parallel.SetWorkers(1)
	plan1, eval1 := planEvalJSON(t, 7)

	parallel.SetWorkers(4)
	plan4, eval4 := planEvalJSON(t, 7)

	if plan1 != plan4 {
		t.Errorf("plan differs between workers=1 and workers=4:\n%s\nvs\n%s", plan1, plan4)
	}
	if eval1 != eval4 {
		t.Errorf("EvalResult differs between workers=1 and workers=4:\n%s\nvs\n%s", eval1, eval4)
	}

	// Same worker count, same seed: reruns must also agree (no shared
	// mutable state survives an Evaluate call).
	plan4b, eval4b := planEvalJSON(t, 7)
	if plan4 != plan4b || eval4 != eval4b {
		t.Error("repeated run at workers=4 is not stable")
	}
}

// TestProfileOfflineDeterministicAcrossWorkers checks the profiling sweep:
// each (level, rate) point owns the seed of its sweep index and a cloned
// cluster, so the fitted models — and any plan computed from them — must not
// depend on how the sweep was scheduled.
func TestProfileOfflineDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	planWith := func(workers int) string {
		parallel.SetWorkers(workers)
		sys, err := NewSystem(HotelReservation(), WithHosts(12))
		if err != nil {
			t.Fatal(err)
		}
		// Analytic models first: microservices the short sweep cannot fit
		// keep them, so the post-profiling plan is always computable.
		sys.UseAnalyticModels()
		if _, err := sys.ctrl.ProfileOffline(core.OfflineConfig{
			Rates:     []float64{5_000, 15_000, 30_000},
			WindowMin: 0.4,
		}); err != nil {
			t.Fatal(err)
		}
		plan, err := sys.Plan(hotelRates(25_000))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	defer parallel.SetWorkers(0)
	seqPlan := planWith(1)
	parPlan := planWith(4)
	if seqPlan != parPlan {
		t.Errorf("post-profiling plan differs between workers=1 and workers=4:\n%s\nvs\n%s", seqPlan, parPlan)
	}
}
