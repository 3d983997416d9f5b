package multiplex

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"erms/internal/apps"
	"erms/internal/parallel"
	"erms/internal/scaling"
)

// requirePlanBitIdentical fails unless two multi-service plans agree bit for
// bit in every field — the planner's contract against the oracle and the
// determinism guarantee across worker counts.
func requirePlanBitIdentical(t *testing.T, want, got *Plan, ctx string) {
	t.Helper()
	if want.Scheme != got.Scheme {
		t.Fatalf("%s: scheme %v != %v", ctx, got.Scheme, want.Scheme)
	}
	if math.Float64bits(want.ResourceUsage) != math.Float64bits(got.ResourceUsage) {
		t.Fatalf("%s: usage %v != %v (bit-level)", ctx, got.ResourceUsage, want.ResourceUsage)
	}
	if len(want.Containers) != len(got.Containers) {
		t.Fatalf("%s: %d merged containers != %d", ctx, len(got.Containers), len(want.Containers))
	}
	for ms, n := range want.Containers {
		if got.Containers[ms] != n {
			t.Fatalf("%s: containers[%s] = %d, want %d", ctx, ms, got.Containers[ms], n)
		}
	}
	if len(want.Ranks) != len(got.Ranks) {
		t.Fatalf("%s: ranks size diverged", ctx)
	}
	for ms, bySvc := range want.Ranks {
		for svc, r := range bySvc {
			if got.Ranks[ms][svc] != r {
				t.Fatalf("%s: rank[%s][%s] = %d, want %d", ctx, ms, svc, got.Ranks[ms][svc], r)
			}
		}
	}
	if len(want.PerService) != len(got.PerService) {
		t.Fatalf("%s: per-service size diverged", ctx)
	}
	for svc, wa := range want.PerService {
		ga := got.PerService[svc]
		if ga == nil {
			t.Fatalf("%s: missing per-service alloc %s", ctx, svc)
		}
		if math.Float64bits(wa.ResourceUsage) != math.Float64bits(ga.ResourceUsage) {
			t.Fatalf("%s: %s usage diverged", ctx, svc)
		}
		for ms, v := range wa.Targets {
			if math.Float64bits(ga.Targets[ms]) != math.Float64bits(v) {
				t.Fatalf("%s: %s target[%s] diverged", ctx, svc, ms)
			}
		}
		if !slices.Equal(wa.Microservices, ga.Microservices) {
			t.Fatalf("%s: %s microservices %v, want %v", ctx, svc, ga.Microservices, wa.Microservices)
		}
		for i, ms := range wa.Microservices {
			if math.Float64bits(ga.ContainersRaw[i]) != math.Float64bits(wa.ContainersRaw[i]) {
				t.Fatalf("%s: %s raw[%s] diverged", ctx, svc, ms)
			}
			if ga.Containers[i] != wa.Containers[i] {
				t.Fatalf("%s: %s containers[%s] diverged", ctx, svc, ms)
			}
		}
	}
}

// TestPlanSchemeCachedBitIdentical: PlanSchemeCached, a fresh planner over
// the cache it is given, gives the oracle's plan bit for bit for every scheme,
// on the cold window that compiles the templates and the warm one that hits
// them. It goes with PlanSchemeCached (ROADMAP item 8).
func TestPlanSchemeCachedBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		inputs, loads, shared := randomSharedInputs(seed)
		for _, scheme := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared} {
			want, err := monolithicPlan(scheme, inputs, loads, shared, nil)
			if err != nil {
				t.Fatalf("seed %d %v: oracle: %v", seed, scheme, err)
			}
			cache := scaling.NewTemplateCache()
			for round := 0; round < 2; round++ {
				got, err := PlanSchemeCached(scheme, inputs, loads, shared, cache)
				if err != nil {
					t.Fatalf("seed %d %v round %d: cached: %v", seed, scheme, round, err)
				}
				requirePlanBitIdentical(t, want, got,
					fmt.Sprintf("seed %d %v round %d", seed, scheme, round))
			}
			if st := cache.Stats(); st.Invalidations != 0 || st.Hits == 0 {
				t.Fatalf("seed %d %v: stats %+v, want hits and no invalidations", seed, scheme, st)
			}
		}
	}
}

// scaleInputs builds the multi-service planner workload over the exact-shape
// Alibaba-scale topology.
func scaleInputs(cfg apps.ScaleConfig) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	return appInputs(apps.ScaleTopology(cfg), 9000)
}

// TestPlanSchemeByteIdenticalAcrossWorkers pins the parallel determinism
// contract on the scale topology: workers=1 and workers=4 produce
// bit-identical plans, from a fresh planner (every template compiled for the
// call) and from one over a warm template cache.
func TestPlanSchemeByteIdenticalAcrossWorkers(t *testing.T) {
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 9, Services: 24, MicroservicesPerService: 16, SharingDegree: 6,
	})
	defer parallel.SetWorkers(0)
	run := func(workers int, cache *scaling.TemplateCache) *Plan {
		parallel.SetWorkers(workers)
		p, err := NewIncrementalPlanner(cache).PlanScheme(SchemePriority, inputs, loads, shared)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return p
	}
	scratch1 := run(1, nil)
	scratch4 := run(4, nil)
	requirePlanBitIdentical(t, scratch1, scratch4, "scratch w1-vs-w4")

	cache := scaling.NewTemplateCache()
	warm := run(4, cache) // cold window compiles
	requirePlanBitIdentical(t, scratch1, warm, "cached-cold vs scratch")
	cached1 := run(1, cache)
	cached4 := run(4, cache)
	requirePlanBitIdentical(t, scratch1, cached1, "cached w1 vs scratch")
	requirePlanBitIdentical(t, cached1, cached4, "cached w1-vs-w4")
}
