package sim

import "testing"

// throughputScenario is the shared-microservice topology whose speed
// BenchmarkEngineThroughput measures and whose hybrid fidelity
// TestHybridFidelity gates: 40 services in sharing blocks of 4, two
// containers per microservice on 16 hosts.
var throughputScenario = lockstepScenario{
	services: 40, block: 4, containersPerMS: 2, hosts: 16,
	ratePerMin: 2000, durationMin: 2, seed: 1234,
}

// BenchmarkEngineThroughput measures simulated requests per wall-clock
// second on a shared-microservice topology, exact vs hybrid. bench7
// (scripts/bench.sh) folds req/s and allocs/op into BENCH_7.json and gates
// exact allocations per request <= 10 and hybrid >= 2x exact.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, mode := range []SimMode{SimExact, SimHybrid} {
		name := "exact"
		if mode == SimHybrid {
			name = "hybrid"
		}
		b.Run(name, func(b *testing.B) {
			var reqs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunPartitioned(throughputScenario.build(b), PartitionOpts{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				for _, sr := range res.PerService {
					reqs += int64(sr.Count + sr.Errors)
				}
			}
			b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
