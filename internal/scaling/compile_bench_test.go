package scaling_test

import (
	"math"
	"slices"
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/profiling"
	"erms/internal/scaling"
)

// benchInputs builds per-service scaling inputs over the exact-shape
// Alibaba-scale topology: this is the per-window planner workload the
// compiled-template path optimizes.
func benchInputs(tb testing.TB, cfg apps.ScaleConfig) []scaling.Input {
	tb.Helper()
	app := apps.ScaleTopology(cfg)
	cl := cluster.NewPaperCluster()
	shares := make(map[string]float64, len(app.Containers))
	for ms, spec := range app.Containers {
		shares[ms] = cl.DominantShare(spec)
	}
	models := profiling.AnalyticModels(app.Profiles, app.Containers, cluster.DefaultInterference)
	inputs := make([]scaling.Input, 0, len(app.Graphs))
	for _, g := range app.Graphs {
		loads := make(map[string]float64, g.Len())
		for _, ms := range g.Microservices() {
			loads[ms] = 12000 * float64(len(g.NodesFor(ms)))
		}
		inputs = append(inputs, scaling.Input{
			Graph:     g,
			SLA:       app.SLAs[g.Service],
			Models:    models,
			Shares:    shares,
			Workloads: loads,
			CPUUtil:   0.35,
			MemUtil:   0.25,
		})
	}
	return inputs
}

// BenchmarkCompiledVsNaive measures one steady-state planner window over the
// Alibaba-scale topology: the naive arm is the recursive test oracle, which
// re-validates, re-merges, and re-sorts every window; the compiled path
// replays precompiled templates and only re-evaluates the per-window
// arithmetic. The ratio is the repo's
// analog of the paper's 22.5× planning-overhead reduction (§8.4).
func BenchmarkCompiledVsNaive(b *testing.B) {
	cfg := apps.ScaleConfig{Seed: 42, Services: 100, MicroservicesPerService: 50, SharingDegree: 10}
	inputs := benchInputs(b, cfg)

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range inputs {
				if _, err := scaling.NaivePlan(inputs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		cache := scaling.NewTemplateCache()
		// Warm: the steady-state window is what the reconciler pays.
		for j := range inputs {
			if _, err := scaling.CachedPlan(cache, inputs[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range inputs {
				if _, err := scaling.CachedPlan(cache, inputs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestCompiledMatchesNaiveAtScale pins the bit-identity contract against the
// recursive oracle on the full benchmark topology (not just small unit
// graphs).
func TestCompiledMatchesNaiveAtScale(t *testing.T) {
	cfg := apps.ScaleConfig{Seed: 42, Services: 40, MicroservicesPerService: 30, SharingDegree: 8}
	inputs := benchInputs(t, cfg)
	cache := scaling.NewTemplateCache()
	for round := 0; round < 2; round++ {
		for j := range inputs {
			want, errW := scaling.NaivePlan(inputs[j])
			got, errG := scaling.CachedPlan(cache, inputs[j])
			if errW != nil || errG != nil {
				t.Fatalf("svc %d: naive err %v, cached err %v", j, errW, errG)
			}
			if math.Float64bits(want.ResourceUsage) != math.Float64bits(got.ResourceUsage) {
				t.Fatalf("svc %d: usage bits diverged", j)
			}
			for ms, w := range want.Targets {
				if math.Float64bits(w) != math.Float64bits(got.Targets[ms]) {
					t.Fatalf("svc %d: target %s diverged", j, ms)
				}
			}
			if !slices.Equal(want.Microservices, got.Microservices) || !slices.Equal(want.Containers, got.Containers) {
				t.Fatalf("svc %d: containers diverged", j)
			}
		}
	}
	st := cache.Stats()
	if st.Compiles != uint64(len(inputs)) || st.Hits != uint64(len(inputs)) {
		t.Fatalf("stats = %+v, want %d compiles then %d hits", st, len(inputs), len(inputs))
	}
}
