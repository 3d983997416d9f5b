package core

import (
	"math"
	"testing"

	"erms/internal/multiplex"
	"erms/internal/obs"
)

// oraclePlan is the from-scratch reference for whatever Controller.Plan
// returns in the cluster's current state: a fresh planner over a private
// template cache and the same inputs, sharing nothing with the controller's
// caches. That a fresh planner equals the map-based whole-app pipeline is
// multiplex's oracle test.
func oraclePlan(t *testing.T, c *Controller, rates map[string]float64) *multiplex.Plan {
	t.Helper()
	plan, err := multiplex.NewIncrementalPlanner(nil).PlanScheme(c.Scheme, c.planInputs(), c.Loads(rates), c.App.Shared())
	if err != nil {
		t.Fatalf("oracle plan: %v", err)
	}
	return plan
}

// TestControllerPlanCacheBitIdentical: the controller's one planning path
// (incremental planner over the template cache) produces plans bit-identical
// to the from-scratch oracle, window after window, and the cache actually
// serves hits after the first window.
func TestControllerPlanCacheBitIdentical(t *testing.T) {
	cached := hotelController(t)
	for w := 0; w < 4; w++ {
		rates := hotelRates(4000 + 1500*float64(w))
		want := oraclePlan(t, cached, rates)
		got, err := cached.Plan(rates)
		if err != nil {
			t.Fatalf("window %d cached: %v", w, err)
		}
		if math.Float64bits(want.ResourceUsage) != math.Float64bits(got.ResourceUsage) {
			t.Fatalf("window %d: usage diverged", w)
		}
		for ms, n := range want.Containers {
			if got.Containers[ms] != n {
				t.Fatalf("window %d: containers[%s] = %d, want %d", w, ms, got.Containers[ms], n)
			}
		}
		for svc, wa := range want.PerService {
			ga := got.PerService[svc]
			for ms, v := range wa.Targets {
				if math.Float64bits(ga.Targets[ms]) != math.Float64bits(v) {
					t.Fatalf("window %d: %s target[%s] diverged", w, svc, ms)
				}
			}
		}
	}
	st := cached.PlanCache.Stats()
	if st.Compiles == 0 || st.Hits == 0 {
		t.Fatalf("cache stats %+v: expected compiles then hits", st)
	}
	if st.Invalidations != 0 {
		t.Fatalf("cache stats %+v: unexpected invalidations", st)
	}
}

// TestControllerPlanCacheCounters: planning with observability mirrors the
// cumulative template-cache counters into erms.self.* gauges.
func TestControllerPlanCacheCounters(t *testing.T) {
	rec := obs.New(nil)
	c := hotelController(t, WithObservability(rec))
	for w := 0; w < 3; w++ {
		if _, err := c.Plan(hotelRates(5000)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.PlanCache.Stats()
	snap := rec.Counters()
	if got := snap[obs.CtrPlanTemplateHits]; got != float64(st.Hits) {
		t.Fatalf("hits counter = %v, cache says %d", got, st.Hits)
	}
	if got := snap[obs.CtrPlanTemplateCompiles]; got != float64(st.Compiles) {
		t.Fatalf("compiles counter = %v, cache says %d", got, st.Compiles)
	}
	if got := snap[obs.CtrPlanTemplateInvalidations]; got != float64(st.Invalidations) {
		t.Fatalf("invalidations counter = %v, cache says %d", got, st.Invalidations)
	}
	if st.Hits < 2 {
		t.Fatalf("expected at least 2 hits after 3 windows, got %+v", st)
	}
}
