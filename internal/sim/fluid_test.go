package sim

import (
	"fmt"
	"math"
	"testing"

	"erms/internal/cluster"
	"erms/internal/workload"
)

// TestHybridFidelity is the regression table guarding the fluid fast path:
// on a far-from-knee topology, hybrid per-service P95 and violation rate
// must stay within tolerance of the exact discrete engine, while actually
// serving a majority of container-minutes from the analytic model. The last
// case is the topology BenchmarkEngineThroughput times, so the speed bench7
// gates is the speed of an engine this test holds to the exact one.
func TestHybridFidelity(t *testing.T) {
	cases := []struct {
		name       string
		sc         lockstepScenario
		p95RelTol  float64 // |hybrid-exact|/exact on P95
		violAbsTol float64 // absolute violation-rate difference
	}{
		{"light load", lockstepScenario{services: 6, block: 2, ratePerMin: 300, seed: 21, durationMin: 3}, 0.30, 0.05},
		{"moderate load", lockstepScenario{services: 6, block: 3, ratePerMin: 900, seed: 22, durationMin: 3}, 0.30, 0.05},
		{"throughput benchmark", throughputScenario, 0.30, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := RunPartitioned(tc.sc.build(t), PartitionOpts{Mode: SimExact})
			if err != nil {
				t.Fatal(err)
			}
			hybrid, err := RunPartitioned(tc.sc.build(t), PartitionOpts{Mode: SimHybrid})
			if err != nil {
				t.Fatal(err)
			}
			if hybrid.FluidContainerMinutes == 0 {
				t.Fatal("fluid path never engaged; fidelity table is vacuous")
			}
			if hybrid.FluidContainerMinutes <= hybrid.ExactContainerMinutes {
				t.Errorf("fluid %d <= exact %d container-minutes; expected fluid majority on this topology",
					hybrid.FluidContainerMinutes, hybrid.ExactContainerMinutes)
			}
			for svc, ex := range exact.PerService {
				hy := hybrid.PerService[svc]
				if hy == nil {
					t.Errorf("%s: missing from hybrid result", svc)
					continue
				}
				if ex.Count == 0 {
					continue
				}
				exP95, hyP95 := ex.P95(), hy.P95()
				if exP95 > 0 {
					if rel := math.Abs(hyP95-exP95) / exP95; rel > tc.p95RelTol {
						t.Errorf("%s: P95 exact=%.3fms hybrid=%.3fms rel diff %.2f > %.2f",
							svc, exP95, hyP95, rel, tc.p95RelTol)
					}
				}
				if d := math.Abs(hy.ViolationRate() - ex.ViolationRate()); d > tc.violAbsTol {
					t.Errorf("%s: violation rate exact=%.4f hybrid=%.4f diff %.4f > %.4f",
						svc, ex.ViolationRate(), hy.ViolationRate(), d, tc.violAbsTol)
				}
				// Throughput is conserved: the fluid path must not drop or
				// duplicate requests.
				if hy.Count+hy.Errors != ex.Count+ex.Errors {
					t.Errorf("%s: completed %d (hybrid) vs %d (exact)", svc, hy.Count+hy.Errors, ex.Count+ex.Errors)
				}
			}
		})
	}
}

// TestFluidEligibility pins when the analytic model may and may not be used.
func TestFluidEligibility(t *testing.T) {
	t.Run("cold topology goes fully fluid", func(t *testing.T) {
		sc := lockstepScenario{services: 4, block: 2, ratePerMin: 200, seed: 5}
		res, err := RunPartitioned(sc.build(t), PartitionOpts{Mode: SimHybrid})
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactContainerMinutes != 0 {
			t.Errorf("cold topology kept %d exact container-minutes, want 0", res.ExactContainerMinutes)
		}
	})
	t.Run("near-knee containers stay exact", func(t *testing.T) {
		// 190k req/min per service on 4-thread containers puts every
		// microservice's per-server utilization at 0.63, above fluidRhoMax and
		// below saturation: one container per 0.8 ms entry, three per 1.2 ms
		// pool microservice (each called by both services). Everything must be
		// simulated discretely.
		sc := lockstepScenario{services: 2, block: 2, containersPerMS: 1, ratePerMin: 190_000, seed: 5, durationMin: 1}
		cfg := sc.build(t)
		for k := 0; k < 3; k++ {
			for c := 0; c < 2; c++ {
				spec := cluster.ContainerSpec{Microservice: fmt.Sprintf("pool-00-%d", k), CPU: 0.1, MemMB: 200, Threads: 4}
				if _, err := cfg.Cluster.Place(spec, (2*k+c)%cfg.Cluster.NumHosts()); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := RunPartitioned(cfg, PartitionOpts{Mode: SimHybrid})
		if err != nil {
			t.Fatal(err)
		}
		if res.FluidContainerMinutes != 0 {
			t.Errorf("hot topology used the fluid path for %d container-minutes, want 0", res.FluidContainerMinutes)
		}
	})
	// A per-request mechanism pins the whole run exact, one row per
	// mechanism; the zero Resilience arms none, so the cold topology stays
	// fully fluid under it.
	hybrid := func(t *testing.T, r *Resilience) *Result {
		cfg := lockstepScenario{services: 4, block: 2, ratePerMin: 200, seed: 5}.build(t)
		cfg.Resilience = r
		res, err := RunPartitioned(cfg, PartitionOpts{Mode: SimHybrid})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t.Run("resilience pins everything exact", func(t *testing.T) {
		for _, row := range []struct {
			name string
			r    Resilience
		}{
			{"sla deadline", Resilience{TimeoutSLAMultiple: 3}},
			{"request timeout", Resilience{RequestTimeoutMs: 500}},
			{"attempt timeout", Resilience{AttemptTimeoutMs: 25}},
			{"retries", Resilience{MaxAttempts: 2}},
			{"breaker", Resilience{BreakerFailureRate: 0.5}},
			{"shedding", Resilience{Shed: true}},
		} {
			t.Run(row.name, func(t *testing.T) {
				if res := hybrid(t, &row.r); res.FluidContainerMinutes != 0 {
					t.Errorf("used the fluid path for %d container-minutes, want 0", res.FluidContainerMinutes)
				}
			})
		}
	})
	t.Run("zero resilience stays fluid", func(t *testing.T) {
		if res := hybrid(t, &Resilience{}); res.ExactContainerMinutes != 0 {
			t.Errorf("kept %d exact container-minutes, want 0", res.ExactContainerMinutes)
		}
	})
	t.Run("failures and closed loops pin microservices", func(t *testing.T) {
		sc := lockstepScenario{
			services: 4, block: 4, ratePerMin: 200, seed: 9,
			closedUsersFirst: 5,
			failures: []Failure{
				{Microservice: "pool-00-1", Index: 0, AtMin: 0.5, RecoverMin: 1.0},
			},
		}
		cfg := sc.build(t)
		// svc-001 mixes an open-loop and a closed-loop stream: the closed
		// loop pins its whole graph.
		cfg.Streams = append(cfg.Streams, closedLoop("svc-001", 3)...)
		cfg.Streams = append(cfg.Streams, Stream{
			Cohort: "open", Service: "svc-001", Tier: workload.TierStandard, Pattern: workload.Static{Rate: 200},
		})
		rt, err := NewRuntime(withFluid(cfg))
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		if rt.fl == nil {
			t.Fatal("fluid state missing")
		}
		// The failure-targeted microservice and every microservice reachable
		// from the closed-loop services' graphs must be pinned exact.
		for _, ms := range []string{"pool-00-1", "entry-000", "pool-00-0", "pool-00-2", "entry-001"} {
			if !rt.fl.pinned[ms] {
				t.Errorf("%s not pinned", ms)
			}
		}
		// Open-loop services' private entries stay eligible.
		for _, ms := range []string{"entry-002", "entry-003"} {
			if rt.fl.pinned[ms] {
				t.Errorf("%s pinned unexpectedly", ms)
			}
		}
	})
	t.Run("host-scope failure pins every microservice on the host", func(t *testing.T) {
		sc := lockstepScenario{
			services: 2, block: 2, ratePerMin: 200, seed: 9, hosts: 2,
			failures: []Failure{{Host: 0, AtMin: 0.5, RecoverMin: 1.0}},
		}
		cfg := sc.build(t)
		rt, err := NewRuntime(withFluid(cfg))
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		pinnedAny := false
		for _, c := range cfg.Cluster.Host(0).Containers() {
			if rt.fl.pinned[c.Spec.Microservice] {
				pinnedAny = true
			} else {
				t.Errorf("%s on failed host not pinned", c.Spec.Microservice)
			}
		}
		if !pinnedAny {
			t.Error("no microservice pinned for host-scope failure")
		}
	})
}

func withFluid(cfg Config) Config {
	cfg.fluid = true
	return cfg
}
