package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"erms/internal/workload"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this build's output")

const fingerprintGolden = "testdata/fingerprints.golden"

// pinnedRuns are the four configurations whose full observable output is
// pinned by hash. Between them they cover every per-call path of the runtime:
// the plain exact path (queueing, δ-priority picks, round-robin routing,
// container and host outages with re-routing, a closed-loop population,
// sampled spans, a dropped minute), the resilient attempt loop (per-attempt timeouts,
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
		rt, err := NewRuntime(pinnedResilientConfig(t, obs))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), obs.recs
	}},
	{"hybrid", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		rt, err := NewRuntime(withFluid(pinnedHybridConfig(t, obs)))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(), obs.recs
	}},
	{"partitioned", func(t *testing.T) (*Result, []CallRecord) {
		obs := &recObserver{}
		res, err := RunPartitioned(pinnedPartitionedConfig(t, obs), PartitionOpts{Mode: SimExact})
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
func pinnedExactConfig(t *testing.T, obs SpanObserver) Config {
	cfg := lockstepScenario{
		services: 3, block: 3, containersPerMS: 2, ratePerMin: 60_000, seed: 101,
		observer: obs, closedUsersFirst: 40,
		failures: []Failure{
			{Microservice: "pool-00-1", Index: 0, AtMin: 0.7, RecoverMin: 1.2},
			{Host: 3, AtMin: 1.3, RecoverMin: 1.7},
		},
	}.build(t)
	cfg.ThinkTimeMs = 40
	cfg.Delta = 0.05
	cfg.DropMinutes = []int{1}
	cfg.Priorities = map[string]map[string]int{
		"pool-00-0": {"svc-000": 2, "svc-001": 0, "svc-002": 1},
		"pool-00-1": {"svc-000": 0, "svc-001": 1, "svc-002": 2},
	}
	return cfg
}

// pinnedResilientConfig is the "resilient" pinned run's configuration.
func pinnedResilientConfig(t *testing.T, obs SpanObserver) Config {
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
	return cfg
}

// pinnedHybridConfig is the "hybrid" pinned run's configuration, before
// withFluid: one hot service keeps its block's pools near the knee (exact)
// while the other block goes fluid.
func pinnedHybridConfig(t *testing.T, obs SpanObserver) Config {
	cfg := lockstepScenario{
		services: 4, block: 2, containersPerMS: 1, ratePerMin: 3_000, seed: 303,
		observer: obs,
	}.build(t)
	cfg.Patterns["svc-000"] = workload.Static{Rate: 140_000}
	return cfg
}

// pinnedPartitionedConfig is the "partitioned" pinned run's configuration:
// three sharing groups.
func pinnedPartitionedConfig(t *testing.T, obs SpanObserver) Config {
	return lockstepScenario{
		services: 9, block: 3, ratePerMin: 6_000, seed: 404, observer: obs,
		streamsOnFirst: true,
		failures: []Failure{
			{Microservice: "pool-01-0", Index: 0, AtMin: 0.8, RecoverMin: 1.4},
			{Host: 2, AtMin: 1.1, RecoverMin: 1.6},
		},
	}.build(t)
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
// pinned runs — latency reservoirs, minute samples, stream rows,
// sampled spans, engine event count and heap peak, data-plane counters —
// against hashes captured before the per-call closure chain was replaced by
// pooled frames. The runtime's contract is the same events in the same order
// with the same RNG draws, so any drift here is a behaviour change. The
// planned ones re-captured it: trace sampling by a hash of the trace ID, and
// service times drawing their normal from the ziggurat. The exact line was
// also re-captured when its closed-loop population became a stream, which
// added that stream's result row and nothing else: with its "stream" line
// removed, the exact run's text hashes to the earlier f34cd688…. The exact,
// hybrid and partitioned lines were re-captured once more when a nil
// Resilience became the zero one: every run counts its attempts, and a
// crash fails the calls in flight instead of completing them. The resilient
// line did not move.
// `go test ./internal/sim -run TestRuntimeFingerprintPinned -update` rewrites
// the golden file from the current build.
func TestRuntimeFingerprintPinned(t *testing.T) {
	got, byName := pinnedFingerprints(t)

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
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkFingerprints(t, got)
}

// pinnedFingerprints runs every pinned configuration and renders the golden
// file's text: one hash line per run. Each result is released once hashed,
// so a later run reuses its latency samples; what the callers read of the
// results afterwards are stored counts.
func pinnedFingerprints(t *testing.T) (string, map[string]*Result) {
	var got strings.Builder
	byName := map[string]*Result{}
	for _, pr := range pinnedRuns {
		res, spans := pr.run(t)
		if len(spans) == 0 {
			t.Errorf("%s: no sampled spans; the run pins less than it claims", pr.name)
		}
		byName[pr.name] = res
		fmt.Fprintf(&got, "%s %s\n", pr.name, pinnedHash(res, spans))
		res.Release()
	}
	return got.String(), byName
}

// checkFingerprints compares pinnedFingerprints' text with the golden file.
func checkFingerprints(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fingerprints drifted from %s:\n got:\n%s want:\n%s", fingerprintGolden, got, want)
	}
}

// TestNilResilienceIsZero: a nil Config.Resilience is the zero Resilience,
// not a second data plane. The pinned exact, hybrid and partitioned runs —
// crashes, host failures and a closed loop among them — hash the same under
// either, and the hybrid run still serves calls from the fluid path.
func TestNilResilienceIsZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *Resilience, SpanObserver) *Result
	}{
		{"exact", func(t *testing.T, res *Resilience, obs SpanObserver) *Result {
			cfg := pinnedExactConfig(t, obs)
			cfg.Resilience = res
			return runRes(t, cfg)
		}},
		{"hybrid", func(t *testing.T, res *Resilience, obs SpanObserver) *Result {
			cfg := pinnedHybridConfig(t, obs)
			cfg.Resilience = res
			return runRes(t, withFluid(cfg))
		}},
		{"partitioned", func(t *testing.T, res *Resilience, obs SpanObserver) *Result {
			cfg := pinnedPartitionedConfig(t, obs)
			cfg.Resilience = res
			r, err := RunPartitioned(cfg, PartitionOpts{Mode: SimExact})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hash := func(res *Resilience) (string, *Result) {
				obs := &recObserver{}
				r := tc.run(t, res, obs)
				return pinnedHash(r, obs.recs), r
			}
			nilHash, r := hash(nil)
			if zeroHash, _ := hash(&Resilience{}); nilHash != zeroHash {
				t.Errorf("nil Resilience hashes to %s, the zero Resilience to %s", nilHash, zeroHash)
			}
			if r.Data.Attempts == 0 {
				t.Error("the run counted no attempts")
			}
			if tc.name == "hybrid" && r.FluidContainerMinutes == 0 {
				t.Error("the hybrid run served nothing from the fluid path")
			}
		})
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

// TestTimeoutsSkipTheHeap is the wheel's claim as a count: nearly every
// attempt timeout is unlinked when its attempt settles and never reaches the
// heap, so on the pinned resilient run no more than 0.45 of the executed
// events were pushed on the heap. With every timer on the heap the share was
// 0.55 (1 978 563 of 3 628 353); with the wheel it is 0.43 (1 229 012 of
// 2 878 802).
func TestTimeoutsSkipTheHeap(t *testing.T) {
	rt, err := NewRuntime(pinnedResilientConfig(t, &recObserver{}))
	if err != nil {
		t.Fatal(err)
	}
	events := rt.Run().Engine.Events
	if pushes := rt.eng.heapPushes; events == 0 || float64(pushes) > 0.45*float64(events) {
		t.Fatalf("%d of %d events went through the heap, want <= 0.45", pushes, events)
	}
}

// TestCallbacksSkipTheFrameHeap is the callback heap's structural claim: on
// a run with one arrival walker per service (throughputScenario's 40
// services in one runtime), after every Run step — a Run to the next pending
// event's time — no frame-heap key's payload holds a callback and no
// callback-heap key's payload holds a frame event.
func TestCallbacksSkipTheFrameHeap(t *testing.T) {
	rt, err := NewRuntime(throughputScenario.build(t))
	if err != nil {
		t.Fatal(err)
	}
	rt.setup()
	e := rt.eng
	end := rt.cfg.DurationMin*60_000 + drainMs
	var steps, callPeak, framePeak int
	for e.Pending() > 0 {
		next := e.wheelStart
		if e.laneLen > 0 {
			next = math.Min(next, e.lane[e.laneHead].time)
		}
		for _, q := range []eventHeap{e.events, e.calls} {
			if len(q) > 0 {
				next = math.Min(next, q[0].time)
			}
		}
		if next > end {
			break
		}
		e.Run(next)
		steps++
		for _, k := range e.events {
			if p := e.slots[k.slot]; p.fn != nil || p.f == nil {
				t.Fatalf("step %d (t=%v): frame-heap key %+v holds a callback", steps, e.now, k)
			}
		}
		for _, k := range e.calls {
			if p := e.slots[k.slot]; p.f != nil || p.fn == nil {
				t.Fatalf("step %d (t=%v): callback-heap key %+v holds a frame event", steps, e.now, k)
			}
		}
		callPeak, framePeak = max(callPeak, len(e.calls)), max(framePeak, len(e.events))
	}
	t.Logf("%d Run steps; peak depth %d callbacks, %d frame events", steps, callPeak, framePeak)
	if callPeak < throughputScenario.services || framePeak == 0 {
		t.Fatalf("callback heap peaked at %d (want >= %d walkers), frame heap at %d",
			callPeak, throughputScenario.services, framePeak)
	}
}

// TestObserverDoesNotPerturbRun: whether a trace is sampled is a hash of
// (seed, trace ID), so attaching an observer changes nothing but what the
// observer receives. Each config runs with and without one and must produce
// the same Result, event count included, on the plain exact path (closed
// loop, dropped minute, failures, priorities), the resilient path with cohort
// streams, and a partitioned exact run.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func(*testing.T, SpanObserver) Config
		parts bool
	}{
		{"exact", pinnedExactConfig, false},
		{"resilient", pinnedResilientConfig, false},
		{"partitioned", pinnedPartitionedConfig, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(obs SpanObserver) *Result {
				opts := PartitionOpts{}
				if tc.parts {
					opts.Partitions = 3
				}
				res, err := Run(tc.cfg(t, obs), opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			obs := &recObserver{}
			with, without := run(obs), run(nil)
			if len(obs.recs) == 0 {
				t.Fatal("the observed run sampled no spans")
			}
			if with.Engine.Events != without.Engine.Events {
				t.Errorf("events %d with an observer vs %d without", with.Engine.Events, without.Engine.Events)
			}
			if fingerprint(with, nil) != fingerprint(without, nil) {
				t.Error("attaching an observer changed the run's result")
			}
		})
	}
}
