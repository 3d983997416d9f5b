package sim

import (
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/stats"
	"erms/internal/workload"
)

// TestRequestSteadyStateZeroAlloc extends the engine's allocation gate from
// one event to a whole request: with resilience disabled and no observer,
// once the frame pool, the event heap, the container queues and the latency
// reservoirs have reached their high-water marks, simulating further
// requests — issue, route, queue, δ-priority pick, process, downstream
// stages, return, record — allocates nothing.
func TestRequestSteadyStateZeroAlloc(t *testing.T) {
	cfg := lockstepScenario{services: 3, block: 3, containersPerMS: 1, ratePerMin: 1, seed: 5}.build(t)
	cfg.Delta = 0.05
	cfg.Priorities = map[string]map[string]int{
		"pool-00-0": {"svc-000": 2, "svc-001": 0, "svc-002": 1},
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No setup(): the test injects requests itself, in bursts deep enough to
	// queue at the 4-thread containers, so no arrival walker or minute tick
	// runs between them.
	const perBurst = 32
	burst := func() {
		for i := 0; i < perBurst; i++ {
			for si := range rt.sources {
				rt.startRequest(si, true, nil)
			}
		}
		rt.advanceTo(rt.eng.Now() + 1000)
	}
	// Warm up past the end-to-end reservoirs' capacity (1<<15 per service),
	// which also fills every microservice's latencySampleCap reservoir: no
	// minute tick drains them between bursts.
	for i := 0; i < (1<<15)/perBurst+8; i++ {
		burst()
	}
	before := rt.jobsAllocated
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Fatalf("a burst of %d requests allocates %.1f times in steady state, want 0", perBurst*len(rt.sources), allocs)
	}
	if rt.jobsAllocated != before {
		t.Fatalf("frame pool grew in steady state: %d -> %d", before, rt.jobsAllocated)
	}
	if rt.eng.Pending() != 0 || len(rt.jobFree) != rt.jobsAllocated {
		t.Fatalf("bursts did not drain: %d events pending, %d of %d frames free", rt.eng.Pending(), len(rt.jobFree), rt.jobsAllocated)
	}
}

// retryStormConfig is the fig23 scenario: a three-tier chain whose backend
// loses one of its two containers mid-run.
func retryStormConfig(t *testing.T, res Resilience) Config {
	t.Helper()
	g := graph.New("checkout", "frontend")
	mid := g.AddStage(g.Root, "mid")[0]
	g.AddStage(mid, "backend")
	cl := cluster.New(3, cluster.PaperHost)
	host := 0
	for _, ms := range []string{"frontend", "mid", "backend"} {
		for k := 0; k < 2; k++ {
			spec := cluster.ContainerSpec{Microservice: ms, CPU: 0.1, MemMB: 200, Threads: 2}
			if _, err := cl.Place(spec, host%cl.NumHosts()); err != nil {
				t.Fatal(err)
			}
			host++
		}
	}
	return Config{
		Seed:         23,
		Cluster:      cl,
		Interference: cluster.DefaultInterference,
		Profiles: map[string]ServiceProfile{
			"frontend": {BaseMs: 1, CV: 0.5},
			"mid":      {BaseMs: 2, CV: 0.5},
			"backend":  {BaseMs: 4, CV: 0.5},
		},
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"checkout": workload.Static{Rate: 36_000}},
		SLAs:           map[string]workload.SLA{"checkout": workload.P95SLA("checkout", 30)},
		DurationMin:    3,
		WarmupMin:      0.5,
		NetworkDelayMs: 0.05,
		Failures:       []Failure{{Microservice: "backend", Index: 0, AtMin: 1, RecoverMin: 2}},
		Resilience:     &res,
	}
}

// TestFrameLifetimeUnderRetryStorm pins the frame release rule where it is
// hardest: under a retry storm a frame is still reachable after its call's
// outcome is decided — from its per-attempt timeout timer, from the container
// queue or thread still holding work the client abandoned, from children of
// that abandoned work, from a crash re-route. Job.handle panics on an event
// delivered to a recycled frame (the generation stamp), so completing the run
// is the assertion; and once the run has drained, every frame ever allocated
// must be back on the free list.
func TestFrameLifetimeUnderRetryStorm(t *testing.T) {
	base := Resilience{TimeoutSLAMultiple: 3, AttemptTimeoutMs: 25, RetryBackoffMs: 2, RetryJitter: 0.2, MaxAttempts: 4}
	budgeted := base
	budgeted.RetryBudget = 0.1
	budgeted.BreakerFailureRate = 0.5
	budgeted.BreakerWindow = 64
	budgeted.BreakerMinSamples = 20
	budgeted.BreakerCooldownMs = 100
	budgeted.BreakerProbes = 2
	budgeted.Shed = true
	for name, res := range map[string]Resilience{"unbounded-retries": base, "budgeted+breaker": budgeted} {
		t.Run(name, func(t *testing.T) {
			rt, err := NewRuntime(retryStormConfig(t, res))
			if err != nil {
				t.Fatal(err)
			}
			r := rt.Run()
			d := r.Data
			if d.Timeouts == 0 || d.Retries == 0 || d.CrashFailures == 0 || d.DeadlineSkips == 0 {
				t.Fatalf("the storm did not happen: %+v", d)
			}
			if n := rt.eng.Pending(); n != 0 {
				t.Fatalf("%d events still pending after the drain", n)
			}
			if live := rt.jobsAllocated - len(rt.jobFree); live != 0 {
				t.Fatalf("%d of %d frames never returned to the free list", live, rt.jobsAllocated)
			}
			if r.Engine.JobsRecycled < d.Attempts {
				t.Fatalf("%d frames recycled for %d attempts", r.Engine.JobsRecycled, d.Attempts)
			}
		})
	}
}

// TestMinuteFlushSteadyStateZeroAlloc is the allocation gate on the minute
// tick: once the runtime's scratch buffer and sample slice have grown,
// recording a minute — the P95 of every microservice's reservoir filled to
// latencySampleCap, and its host utilizations — allocates nothing.
func TestMinuteFlushSteadyStateZeroAlloc(t *testing.T) {
	cfg := lockstepScenario{services: 3, block: 3, ratePerMin: 1, seed: 5}.build(t)
	cfg.WarmupMin = 0
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.recording {
		t.Fatal("minute 0 of a run without warm-up is not recorded")
	}
	rng := stats.NewRNG(7)
	for _, ms := range rt.msList {
		rt.recordNodeLatency(ms, rng.ExpFloat64()) // seeds the reservoir
	}
	minute := func() {
		for _, ms := range rt.msList {
			// Filling up to the bound never draws the reservoir's RNG, which
			// the flush released.
			for ms.lat.Seen() < latencySampleCap {
				ms.lat.Add(rng.ExpFloat64())
			}
		}
		rt.result.Samples = rt.result.Samples[:0]
		rt.flushMinute(0, true)
	}
	minute()
	if allocs := testing.AllocsPerRun(20, minute); allocs != 0 {
		t.Fatalf("recording a minute of %d full reservoirs allocates %.1f times, want 0", len(rt.msList), allocs)
	}
	if len(rt.result.Samples) != len(rt.msList) {
		t.Fatalf("the flush recorded %d samples, want %d", len(rt.result.Samples), len(rt.msList))
	}
	if len(*rt.tailScratch) != latencySampleCap {
		t.Fatalf("the flush selected over %d samples, want %d", len(*rt.tailScratch), latencySampleCap)
	}
}
