package multiplex

import (
	"fmt"
	"math"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
)

// requirePlanBitIdentical fails unless two multi-service plans agree bit for
// bit in every field — the contract of the cached path and of the
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
		for ms, v := range wa.ContainersRaw {
			if math.Float64bits(ga.ContainersRaw[ms]) != math.Float64bits(v) {
				t.Fatalf("%s: %s raw[%s] diverged", ctx, svc, ms)
			}
		}
		for ms, v := range wa.Containers {
			if ga.Containers[ms] != v {
				t.Fatalf("%s: %s containers[%s] diverged", ctx, svc, ms)
			}
		}
	}
}

// TestPlanSchemeCachedBitIdentical: for every scheme, the template-cached
// path reproduces PlanScheme, which compiles every service from scratch, bit
// for bit, on both the cold (compile) and warm (hit) window. The per-service
// check against the recursive oracle is scaling's TestCompiled*.
func TestPlanSchemeCachedBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		inputs, loads, shared := randomSharedInputs(seed)
		for _, scheme := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared} {
			want, err := PlanScheme(scheme, inputs, loads, shared)
			if err != nil {
				t.Fatalf("seed %d %v: scratch: %v", seed, scheme, err)
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
func scaleInputs(tb testing.TB, cfg apps.ScaleConfig) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	tb.Helper()
	app := apps.ScaleTopology(cfg)
	cl := cluster.NewPaperCluster()
	threads := make(map[string]int, len(app.Containers))
	shares := make(map[string]float64, len(app.Containers))
	for ms, spec := range app.Containers {
		threads[ms] = spec.Threads
		shares[ms] = cl.DominantShare(spec)
	}
	models := profiling.AnalyticModels(app.Profiles, threads, cluster.DefaultInterference)
	inputs := make(map[string]scaling.Input, len(app.Graphs))
	loads := make(map[string]map[string]float64, len(app.Graphs))
	for _, g := range app.Graphs {
		byMS := make(map[string]float64, g.Len())
		for _, ms := range g.Microservices() {
			byMS[ms] = 9000 * float64(len(g.NodesFor(ms)))
		}
		inputs[g.Service] = scaling.Input{
			Graph:   g,
			SLA:     app.SLAs[g.Service],
			Models:  models,
			Shares:  shares,
			CPUUtil: 0.35,
			MemUtil: 0.25,
		}
		loads[g.Service] = byMS
	}
	return inputs, loads, app.Shared()
}

// TestPlanSchemeByteIdenticalAcrossWorkers pins the parallel determinism
// contract on the scale topology: workers=1 and workers=4 produce
// bit-identical plans, cached and compiled from scratch (nil cache).
func TestPlanSchemeByteIdenticalAcrossWorkers(t *testing.T) {
	inputs, loads, shared := scaleInputs(t, apps.ScaleConfig{
		Seed: 9, Services: 24, MicroservicesPerService: 16, SharingDegree: 6,
	})
	defer parallel.SetWorkers(0)
	run := func(workers int, cache *scaling.TemplateCache) *Plan {
		parallel.SetWorkers(workers)
		p, err := PlanSchemeCached(SchemePriority, inputs, loads, shared, cache)
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

// BenchmarkPlanScale measures full multi-service priority planning (two
// planAll passes + rank assignment + merge) on Alibaba-scale topologies,
// every template compiled from scratch versus template-cached.
func BenchmarkPlanScale(b *testing.B) {
	sizes := []apps.ScaleConfig{
		{Seed: 42, Services: 50, MicroservicesPerService: 50, SharingDegree: 10},
		{Seed: 42, Services: 200, MicroservicesPerService: 50, SharingDegree: 10},
	}
	for _, cfg := range sizes {
		inputs, loads, shared := scaleInputs(b, cfg)
		name := fmt.Sprintf("svcs=%d", cfg.Services)
		b.Run(name+"/scratch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanScheme(SchemePriority, inputs, loads, shared); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/cached", func(b *testing.B) {
			cache := scaling.NewTemplateCache()
			if _, err := PlanSchemeCached(SchemePriority, inputs, loads, shared, cache); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PlanSchemeCached(SchemePriority, inputs, loads, shared, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
