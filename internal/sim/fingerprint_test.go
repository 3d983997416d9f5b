package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"erms/internal/workload"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this build's output")

const fingerprintGolden = "testdata/fingerprints.golden"

// pinnedRuns are the four configurations whose full observable output is
// pinned by hash. Between them they cover every per-call path of the runtime:
// the plain exact path (queueing, δ-priority picks, P2C routing, container
// and host outages with re-routing, a closed-loop population, sampled spans,
// a dropped minute), the resilient attempt loop (per-attempt timeouts,
// jittered budgeted retries, breakers, tiered shedding, crashes of in-flight
// work, cohort streams), the fluid fast path (collapsed subtrees, per-node
// fluid calls on sampled traces, near-knee microservices left exact), and a
// three-group partitioned run.
var pinnedRuns = []struct {
	name string
	run  func(t *testing.T) (*Result, []CallRecord)
}{
	{"exact", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		rt, err := NewRuntime(pinnedExactConfig(t, obs))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), obs.recs
	}},
	{"resilient", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		cfg := lockstepScenario{
			services: 3, block: 3, containersPerMS: 1, ratePerMin: 70_000, seed: 202,
			observer: obs, streamsOnFirst: true,
			failures: []Failure{
				{Microservice: "pool-00-0", Index: 0, AtMin: 0.6, RecoverMin: 0.9},
				{Microservice: "entry-001", Index: 0, AtMin: 1.0, RecoverMin: 1.1},
				{Host: 2, AtMin: 1.3, RecoverMin: 1.6},
			},
		}.build(t)
		cfg.Streams = append(cfg.Streams, Stream{
			Cohort: "batch", Service: "svc-001", Tier: workload.TierBatch,
			Pattern: workload.Static{Rate: 20_000},
			SLA:     &workload.SLA{Service: "svc-001", Threshold: 40},
		})
		for svc := range cfg.SLAs {
			cfg.SLAs[svc] = workload.P95SLA(svc, 12)
		}
		cfg.Resilience = &Resilience{
			TimeoutSLAMultiple: 3,
			AttemptTimeoutMs:   6,
			MaxAttempts:        3,
			RetryBackoffMs:     0.5,
			RetryJitter:        0.3,
			RetryBudget:        0.1,
			RetryBurst:         5,
			BreakerFailureRate: 0.5,
			BreakerWindow:      32,
			BreakerMinSamples:  10,
			BreakerCooldownMs:  50,
			Shed:               true,
			ShedMaxWaitMs:      4,
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), obs.recs
	}},
	{"hybrid", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		cfg := lockstepScenario{
			services: 4, block: 2, containersPerMS: 1, ratePerMin: 3_000, seed: 303,
			observer: obs,
		}.build(t)
		// One hot service keeps its block's pools near the knee (exact) while
		// the other block goes fluid.
		cfg.Patterns["svc-000"] = workload.Static{Rate: 140_000}
		rt, err := NewRuntime(withFluid(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), obs.recs
	}},
	{"partitioned", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		cfg := lockstepScenario{
			services: 9, block: 3, ratePerMin: 6_000, seed: 404, observer: obs,
			streamsOnFirst: true,
			failures: []Failure{
				{Microservice: "pool-01-0", Index: 0, AtMin: 0.8, RecoverMin: 1.4},
				{Host: 2, AtMin: 1.1, RecoverMin: 1.6},
			},
		}.build(t)
		res, err := RunPartitioned(cfg, PartitionOpts{Mode: SimExact})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partitions != 3 {
			t.Fatalf("expected 3 partitions, got %d", res.Partitions)
		}
		return res, obs.recs
	}},
}

// pinnedExactConfig is the "exact" pinned run's configuration.
func pinnedExactConfig(t *testing.T, obs *recObserver) Config {
	cfg := lockstepScenario{
		services: 3, block: 3, containersPerMS: 2, ratePerMin: 60_000, seed: 101,
		observer: obs, closedUsersFirst: 40,
		failures: []Failure{
			{Microservice: "pool-00-1", Index: 0, AtMin: 0.7, RecoverMin: 1.2},
			{Host: 3, AtMin: 1.3, RecoverMin: 1.7},
		},
	}.build(t)
	cfg.Routing = RouteP2C
	cfg.ThinkTimeMs = 40
	cfg.Delta = 0.05
	cfg.DropMinutes = []int{1}
	cfg.Priorities = map[string]map[string]int{
		"pool-00-0": {"svc-000": 2, "svc-001": 0, "svc-002": 1},
		"pool-00-1": {"svc-000": 0, "svc-001": 1, "svc-002": 2},
	}
	return cfg
}

// pinnedHash hashes everything fingerprint renders except the pooled-record
// balance: JobsAllocated/JobsRecycled count heap allocations and recycles of
// the pooled call record, which depend on how long a record lives — an
// implementation property, unlike every other field.
func pinnedHash(res *Result, spans []CallRecord) string {
	r := *res
	r.Engine.JobsAllocated, r.Engine.JobsRecycled = 0, 0
	sum := sha256.Sum256([]byte(fingerprint(&r, spans)))
	return hex.EncodeToString(sum[:])
}

// TestRuntimeFingerprintPinned compares the full observable output of the
// pinned runs — latency reservoirs, minute samples, call rates, stream rows,
// sampled spans, engine event count and heap peak, data-plane counters —
// against hashes captured before the per-call closure chain was replaced by
// pooled frames. The runtime's contract is the same events in the same order
// with the same RNG draws, so any drift here is a behaviour change.
// `go test ./internal/sim -run TestRuntimeFingerprintPinned -update` rewrites
// the golden file from the current build.
func TestRuntimeFingerprintPinned(t *testing.T) {
	var got strings.Builder
	byName := map[string]*Result{}
	for _, pr := range pinnedRuns {
		res, spans := pr.run(t)
		if len(spans) == 0 {
			t.Errorf("%s: no sampled spans; the run pins less than it claims", pr.name)
		}
		byName[pr.name] = res
		fmt.Fprintf(&got, "%s %s\n", pr.name, pinnedHash(res, spans))
	}

	// The runs must actually reach the paths they are there to pin.
	d := byName["resilient"].Data
	for name, n := range map[string]int{
		"timeouts": d.Timeouts, "retries": d.Retries, "budget exhausted": d.RetryBudgetExhausted,
		"breaker opens": d.BreakerOpens, "short circuits": d.BreakerShortCircuits,
		"shed critical": d.ShedByTier[workload.TierCritical], "shed standard": d.ShedByTier[workload.TierStandard],
		"shed sheddable": d.ShedByTier[workload.TierSheddable], "shed batch": d.ShedByTier[workload.TierBatch],
		"crash failures": d.CrashFailures, "deadline skips": d.DeadlineSkips, "unavailable": d.Unavailable,
	} {
		if n == 0 {
			t.Errorf("resilient run recorded no %s", name)
		}
	}
	if h := byName["hybrid"]; h.FluidContainerMinutes == 0 || h.ExactContainerMinutes == 0 {
		t.Errorf("hybrid run is not mixed: fluid %d, exact %d container-minutes", h.FluidContainerMinutes, h.ExactContainerMinutes)
	}
	if byName["exact"].PerService["svc-000"].Count == 0 {
		t.Error("exact run's closed-loop service completed nothing")
	}

	if *updateFingerprints {
		if err := os.WriteFile(fingerprintGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("fingerprints drifted from %s:\n got:\n%s want:\n%s", fingerprintGolden, got.String(), want)
	}
}

// TestHopsSkipTheHeap is the lane's structural claim as a count: a call costs
// three events and two of them are network hops, so on the pinned exact run
// no more than 0.4 of the executed events were ever pushed on the heap.
func TestHopsSkipTheHeap(t *testing.T) {
	rt, err := NewRuntime(pinnedExactConfig(t, &recObserver{}))
	if err != nil {
		t.Fatal(err)
	}
	events := rt.Run().Engine.Events
	if pushes := rt.eng.heapPushes; events == 0 || float64(pushes) > 0.4*float64(events) {
		t.Fatalf("%d of %d events went through the heap, want <= 0.4", pushes, events)
	}
}
