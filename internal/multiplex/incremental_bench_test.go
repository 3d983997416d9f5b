package multiplex

import (
	"fmt"
	"testing"

	"erms/internal/apps"
	"erms/internal/scaling"
	"erms/internal/stats"
)

// BenchmarkIncrementalVsCompiled is the BENCH_6 pair: per-window planning
// on the full Alibaba-scale topology (1000 services × 50 microservices ×
// sharing degree 10) with 10% of services changing workload every window.
// "compiled" is the map-based whole-app pipeline kept as the oracle
// (monolithicPlan) over a warmed template cache — it replans all 1000
// services each window; "incremental" skips the 900
// unchanged services (the dirty closure of the mutated 10% is exactly the
// mutated services, since sharing groups here are aligned blocks) and
// fans the dirty sharing groups out across shards. bench.sh folds the two
// into BENCH_6.json and gates compiled/incremental >= 5x.
//
// That traffic is the kindest there is: the victims are the first 100
// services — ten whole sharing groups — and utilization never moves. The
// live-* pair is what a running controller sees (and what bench/'s scale
// workloads replay): the 100 victims are drawn from a seeded permutation, so
// they scatter over ~65 of the 100 groups, and the cluster utilization every
// service plans against changes every window, so nothing is skipped and the
// incremental planner's cost is the cost of a replan. Reported beside the
// gated pair, not gated.
func BenchmarkIncrementalVsCompiled(b *testing.B) {
	const services, dirtyFrac = 1000, 0.10
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 42, Services: services, MicroservicesPerService: 50, SharingDegree: 10,
	})
	nDirty := int(dirtyFrac * services)
	// traffic returns the per-window mutation for a victim set: a fresh
	// workload multiplier, so every window's fingerprints really change, and
	// with drift a fresh utilization. Both derive from a counter of its own,
	// not from the benchmark's (which restarts at 0 on every b.N round and
	// would replay the window the round before ended on).
	traffic := func(order []int, drift bool) func() {
		victims := make([]string, nDirty)
		base := make([]map[string]float64, nDirty)
		for i := range victims {
			victims[i] = fmt.Sprintf("scale-svc-%05d", order[i])
			byMS := loads[victims[i]]
			cp := make(map[string]float64, len(byMS))
			for ms, g := range byMS {
				cp[ms] = g
			}
			base[i] = cp
		}
		window := 0
		return func() {
			window++
			mult := 1 + 0.01*float64(window%7+1)
			for i, svc := range victims {
				for ms, g := range base[i] {
					loads[svc][ms] = g * mult
				}
			}
			if drift {
				for svc, in := range inputs {
					in.CPUUtil = 0.35 + 1e-4*float64(window%11)
					inputs[svc] = in
				}
			}
		}
	}
	aligned := make([]int, services)
	for i := range aligned {
		aligned[i] = i
	}
	scattered := stats.NewRNG(42).Perm(services)

	pair := func(prefix string, mutate func(), wantSkips bool) {
		b.Run(prefix+"compiled", func(b *testing.B) {
			cache := scaling.NewTemplateCache()
			if _, err := monolithicPlan(SchemePriority, inputs, loads, shared, cache); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mutate()
				b.StartTimer()
				if _, err := monolithicPlan(SchemePriority, inputs, loads, shared, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"incremental", func(b *testing.B) {
			p := NewIncrementalPlanner(nil)
			if _, err := p.PlanScheme(SchemePriority, inputs, loads, shared); err != nil {
				b.Fatal(err)
			}
			cold := p.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mutate()
				b.StartTimer()
				if _, err := p.PlanScheme(SchemePriority, inputs, loads, shared); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Sanity: on aligned traffic post-warmup windows must skip the
			// unchanged 90%, or the benchmark silently degrades into the
			// compiled one; on live traffic nothing may be skipped, or it is
			// not measuring a replan.
			warm := p.Stats()
			skipped := warm.SkippedServices - cold.SkippedServices
			dirty := warm.DirtyServices - cold.DirtyServices
			if wantSkips && skipped <= dirty {
				b.Fatalf("incremental planner did not skip: %d skipped vs %d dirty over %d windows",
					skipped, dirty, b.N)
			}
			if !wantSkips && skipped != 0 {
				b.Fatalf("live traffic left %d services clean over %d windows", skipped, b.N)
			}
		})
	}
	pair("", traffic(aligned, false), true)
	pair("live-", traffic(scattered, true), false)
}
