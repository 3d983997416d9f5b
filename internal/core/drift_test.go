package core

import (
	"reflect"
	"testing"

	"erms/internal/drift"
	"erms/internal/obs"
)

// TestDriftDisabledPathIdentical: without WithDriftDetection — and with a
// detector whose threshold can never fire — the reconciler's window reports
// match the frozen controller exactly. Drift detection off (or silent) is a
// pure observer.
func TestDriftDisabledPathIdentical(t *testing.T) {
	run := func(opts ...Option) []WindowReport {
		r := NewReconciler(hotelController(t, opts...))
		r.WindowMin = 0.8
		var out []WindowReport
		for w := 0; w < 3; w++ {
			rep, err := r.Step(hotelRates(10_000+2_000*float64(w)), uint64(100+w))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *rep)
		}
		return out
	}
	frozen := run()
	silent := run(WithDriftDetection(drift.Config{Threshold: 1e9}))
	for w := range frozen {
		if silent[w].ModelSwaps != 0 {
			t.Fatalf("window %d: silent detector swapped models", w)
		}
		if !reflect.DeepEqual(frozen[w], silent[w]) {
			t.Fatalf("window %d reports diverge:\nfrozen: %+v\nsilent: %+v", w, frozen[w], silent[w])
		}
	}
}

// TestDriftSwapInstallsModelAndInvalidatesTemplate: doubling a shared
// microservice's true service time mid-run (the frozen analytic models keep
// their stale copy) must trigger a swap that (a) replaces the model in
// c.Models, (b) shows up as exactly that service's template invalidation in
// the plan cache, and (c) raises the planner's latency prediction for the
// drifted microservice.
func TestDriftSwapInstallsModelAndInvalidatesTemplate(t *testing.T) {
	c := hotelController(t, WithDriftDetection(drift.Config{Threshold: 0.5, Consecutive: 2}))
	rec := obs.New(nil)
	c.Obs = rec
	r := NewReconciler(c)
	// Live samples are per-minute aggregates recorded after warmup, so a
	// window must span at least two whole minutes to carry any signal.
	r.WindowMin = 2.0
	r.WarmupMin = 0.5

	for w := 0; w < 2; w++ {
		if _, err := r.Step(hotelRates(10_000), uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Drift.Stats(); st.Swaps != 0 {
		t.Fatalf("swaps before injection: %+v", st)
	}
	before := c.Models["profile"]
	inv0 := c.PlanCache.Stats().Invalidations

	// Chaos injection: the dependency behind "profile" got 4× slower. The
	// simulator sees it immediately; the frozen models do not.
	p := c.App.Profiles["profile"]
	p.BaseMs *= 4
	c.App.Profiles["profile"] = p

	swapped := 0
	for w := 2; w < 7 && swapped == 0; w++ {
		rep, err := r.Step(hotelRates(10_000), uint64(w))
		if err != nil {
			t.Fatal(err)
		}
		swapped += rep.ModelSwaps
	}
	if swapped == 0 {
		t.Fatal("no model swap within 5 windows of a 4x service-time shift")
	}
	after := c.Models["profile"]
	if after == before {
		t.Fatal("model not replaced in c.Models")
	}
	if pNew, pOld := after.Predict(500, 0.3, 0.3), before.Predict(500, 0.3, 0.3); pNew <= pOld {
		t.Fatalf("swapped model predicts %.2fms <= frozen %.2fms", pNew, pOld)
	}

	// The swap is a template-cache invalidation event; planning the next
	// window recompiles only the stale template.
	if _, err := r.Step(hotelRates(10_000), 9); err != nil {
		t.Fatal(err)
	}
	if inv := c.PlanCache.Stats().Invalidations; inv <= inv0 {
		t.Fatalf("invalidations %d -> %d: swap did not invalidate the template", inv0, inv)
	}

	// Counters made it to the observability surface.
	if got := rec.Value(obs.CtrModelSwaps); got < 1 {
		t.Fatalf("%s = %v, want >= 1", obs.CtrModelSwaps, got)
	}
	if rec.Value(obs.CtrDriftDetections) < 1 || rec.Value(obs.CtrDriftWindows) < 1 {
		t.Fatal("drift detection/window counters missing")
	}
	if got := rec.Value(obs.GaugeDriftScore); got <= 0.5 {
		t.Fatalf("max drift score %v, want > threshold", got)
	}
}

// TestObserveDriftNil: the hook is a no-op without a detector or a result.
func TestObserveDriftNil(t *testing.T) {
	c := hotelController(t)
	if sw := c.ObserveDrift(nil); sw != nil {
		t.Fatal("nil result produced swaps")
	}
	cd := hotelController(t, WithDriftDetection(drift.Config{}))
	if sw := cd.ObserveDrift(nil); sw != nil {
		t.Fatal("nil result produced swaps on drift-enabled controller")
	}
}
