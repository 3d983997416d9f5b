package sim

import (
	"strings"
	"testing"

	"erms/internal/graph"
	"erms/internal/workload"
)

// resConfig is singleMSConfig plus an enabled resilience layer.
func resConfig(t *testing.T, ratePerMin float64, containers int, res Resilience) Config {
	t.Helper()
	cfg := singleMSConfig(t, ratePerMin, containers)
	cfg.Resilience = &res
	return cfg
}

func runRes(t *testing.T, cfg Config) *Result {
	t.Helper()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Run()
}

func TestResilienceValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Resilience)
		want string
	}{
		{"negative sla multiple", func(r *Resilience) { r.TimeoutSLAMultiple = -1 }, "TimeoutSLAMultiple"},
		{"negative request timeout", func(r *Resilience) { r.RequestTimeoutMs = -5 }, "RequestTimeoutMs"},
		{"negative attempt timeout", func(r *Resilience) { r.AttemptTimeoutMs = -5 }, "AttemptTimeoutMs"},
		{"jitter above one", func(r *Resilience) { r.RetryJitter = 1.5 }, "RetryJitter"},
		{"negative jitter", func(r *Resilience) { r.RetryJitter = -0.1 }, "RetryJitter"},
		{"negative retry budget", func(r *Resilience) { r.RetryBudget = -0.1 }, "RetryBudget"},
		{"breaker rate above one", func(r *Resilience) { r.BreakerFailureRate = 2 }, "BreakerFailureRate"},
		{"negative shed wait", func(r *Resilience) { r.ShedMaxWaitMs = -1 }, "ShedMaxWaitMs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res Resilience
			tc.mut(&res)
			cfg := singleMSConfig(t, 100, 1)
			cfg.Resilience = &res
			_, err := NewRuntime(cfg)
			if err == nil {
				t.Fatalf("invalid resilience accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestConfigValidationRanges is the table-driven range check on the base
// simulation parameters added alongside the resilience layer.
func TestConfigValidationRanges(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"sample rate above one", func(c *Config) { c.SampleRate = 1.5 }, "SampleRate"},
		{"negative sample rate", func(c *Config) { c.SampleRate = -0.2 }, "SampleRate"},
		{"negative network delay", func(c *Config) { c.NetworkDelayMs = -1 }, "NetworkDelayMs"},
		{"negative think time", func(c *Config) { c.ThinkTimeMs = -1 }, "ThinkTimeMs"},
		{"negative warmup", func(c *Config) { c.WarmupMin = -1 }, "WarmupMin"},
		{"warmup at duration", func(c *Config) { c.WarmupMin = 2 }, "WarmupMin"},
		{"warmup above duration", func(c *Config) { c.WarmupMin = 3 }, "WarmupMin"},
		{"negative delta", func(c *Config) { c.Delta = -0.1 }, "Delta"},
		{"delta above one", func(c *Config) { c.Delta = 1.5 }, "Delta"},
		{"stream with a pattern and users", func(c *Config) {
			c.Streams = closedLoop("svc", 2)
			c.Streams[0].Pattern = workload.Static{Rate: 100}
		}, "not both (Users 2)"},
		{"negative users", func(c *Config) { c.Streams = closedLoop("svc", -1) }, "(Users -1)"},
		{"closed-loop stream on an unknown service", func(c *Config) { c.Streams = closedLoop("nosuch", 2) }, `unknown service "nosuch"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := singleMSConfig(t, 100, 1) // DurationMin 2
			tc.mut(&cfg)
			_, err := NewRuntime(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
	// Boundary values that must remain valid.
	ok := singleMSConfig(t, 100, 1)
	ok.SampleRate = 1
	ok.Delta = 0 // strict-priority degeneration, used by the motivation sweeps
	if _, err := NewRuntime(ok); err != nil {
		t.Fatalf("boundary config rejected: %v", err)
	}
}

// TestDeadlinePropagationFailsFast pins the deadline arithmetic: with a
// request deadline far below the chain's service time, requests error out
// and downstream calls are skipped without executing (DeadlineSkips).
func TestDeadlinePropagationFailsFast(t *testing.T) {
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B")
	cfg := Config{
		Seed:    1,
		Cluster: buildCluster(t, 2, map[string]int{"A": 1, "B": 1}),
		Profiles: map[string]ServiceProfile{
			"A": {BaseMs: 2, CV: 0.3},
			"B": {BaseMs: 2, CV: 0.3},
		},
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"svc": workload.Static{Rate: 600}},
		DurationMin:    2,
		WarmupMin:      0.5,
		NetworkDelayMs: 0.5,
		Resilience:     &Resilience{RequestTimeoutMs: 2}, // chain needs ≥ 4ms service + 2ms network
	}
	res := runRes(t, cfg)
	sr := res.PerService["svc"]
	if sr.Errors == 0 {
		t.Fatal("impossible deadline produced no errors")
	}
	if sr.Count > sr.Errors/10 {
		t.Fatalf("too many successes under an impossible deadline: %d ok vs %d errors", sr.Count, sr.Errors)
	}
	if res.Data.DeadlineSkips == 0 {
		t.Fatal("no downstream call was skipped on an expired deadline")
	}
	if res.Data.Timeouts == 0 {
		t.Fatal("no attempt timeout fired")
	}
	if got := sr.ErrorRate(); got < 0.9 {
		t.Fatalf("error rate %v, want ≈ 1", got)
	}
}

// TestRetriesMaskCrash pins the retry happy path: a transient crash fails
// in-flight calls, and budgeted retries recover most of them on the healthy
// replica, cutting the client-visible error count versus no retries.
func TestRetriesMaskCrash(t *testing.T) {
	mk := func(maxAttempts int) (*ServiceResult, DataStats) {
		res := Resilience{
			RequestTimeoutMs: 200,
			AttemptTimeoutMs: 50,
			MaxAttempts:      maxAttempts,
			RetryBudget:      0.2,
			RetryBurst:       50,
		}
		// 60k/min over 2×4 threads at 2ms ≈ 25% utilization: the healthy
		// replica has ample headroom to absorb retried work. Several
		// crash/recover cycles guarantee in-flight calls get severed.
		cfg := resConfig(t, 60_000, 2, res)
		cfg.DurationMin = 2
		cfg.WarmupMin = 0.25
		cfg.Failures = []Failure{
			{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 0.7},
			{Microservice: "A", Index: 0, AtMin: 0.9, RecoverMin: 1.1},
			{Microservice: "A", Index: 0, AtMin: 1.3, RecoverMin: 1.5},
		}
		r := runRes(t, cfg)
		return r.PerService["svc"], r.Data
	}
	noRetry, d0 := mk(1)
	retry, d1 := mk(3)
	if d0.CrashFailures == 0 || d1.CrashFailures == 0 {
		t.Fatalf("crash failed no in-flight calls: %d / %d", d0.CrashFailures, d1.CrashFailures)
	}
	if d0.Retries != 0 {
		t.Fatalf("MaxAttempts=1 retried %d times", d0.Retries)
	}
	if d1.Retries == 0 {
		t.Fatal("MaxAttempts=3 never retried")
	}
	if noRetry.Errors == 0 {
		t.Fatal("crash without retries produced no client-visible errors")
	}
	if retry.Errors*2 > noRetry.Errors {
		t.Fatalf("retries did not mask the crash: %d errors with retries vs %d without", retry.Errors, noRetry.Errors)
	}
}

// TestRetryBudgetCaps pins the token bucket: under a sustained blackout a
// zero earn rate retries without bound while a small budget runs dry, so the
// budgeted run performs far fewer retries and reports budget exhaustion.
func TestRetryBudgetCaps(t *testing.T) {
	mk := func(budget float64) DataStats {
		res := Resilience{
			RequestTimeoutMs: 100,
			MaxAttempts:      4,
			RetryBudget:      budget,
			RetryBurst:       5,
		}
		cfg := resConfig(t, 6_000, 1, res)
		cfg.DurationMin = 2
		cfg.WarmupMin = 0.25
		cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.5}}
		return runRes(t, cfg).Data
	}
	unbounded := mk(0)
	budgeted := mk(0.05)
	if unbounded.RetryBudgetExhausted != 0 {
		t.Fatalf("unbounded run reported budget exhaustion %d times", unbounded.RetryBudgetExhausted)
	}
	if budgeted.RetryBudgetExhausted == 0 {
		t.Fatal("budgeted run never exhausted its tokens during the blackout")
	}
	if budgeted.Retries*2 > unbounded.Retries {
		t.Fatalf("budget did not cap retries: %d vs %d unbounded", budgeted.Retries, unbounded.Retries)
	}
}

// TestBreakerOpensAndRecovers pins the breaker state machine end to end:
// failures during a blackout trip it open (short-circuiting later calls);
// after recovery a half-open probe succeeds, the breaker closes, and traffic
// completes again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	res := Resilience{
		RequestTimeoutMs:   100,
		BreakerFailureRate: 0.5,
		BreakerWindow:      16,
		BreakerMinSamples:  5,
		BreakerCooldownMs:  200,
	}
	cfg := resConfig(t, 6_000, 1, res)
	cfg.DurationMin = 3
	cfg.WarmupMin = 0
	cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.0}}
	r := runRes(t, cfg)
	sr := r.PerService["svc"]
	if r.Data.BreakerOpens == 0 {
		t.Fatal("breaker never opened during the blackout")
	}
	if r.Data.BreakerShortCircuits == 0 {
		t.Fatal("open breaker short-circuited no calls")
	}
	// ~2 of 3 minutes are healthy; the breaker must have closed again.
	if perMin := float64(sr.Count) / r.SimulatedMin; perMin < 6000*0.5 {
		t.Fatalf("throughput %v/min after recovery, breaker appears stuck open", perMin)
	}
	if sr.Errors == 0 {
		t.Fatal("blackout produced no errors")
	}
}

// TestShedBoundsQueueWait pins admission control: a 4× overloaded container
// sheds instead of queueing without bound, keeping the latency of accepted
// requests near the wait bound.
func TestShedBoundsQueueWait(t *testing.T) {
	res := Resilience{
		Shed:          true,
		ShedMaxWaitMs: 10,
	}
	// 1 container × 4 threads × 2ms ⇒ capacity 120k/min; offer 4×.
	cfg := resConfig(t, 480_000, 1, res)
	cfg.DurationMin = 1.5
	cfg.WarmupMin = 0.25
	r := runRes(t, cfg)
	sr := r.PerService["svc"]
	if r.Data.Shed == 0 {
		t.Fatal("overload shed nothing")
	}
	if sr.Count == 0 {
		t.Fatal("everything was shed")
	}
	if p95 := sr.P95(); p95 > 40 {
		t.Fatalf("accepted-request p95 %v ms despite a 10ms wait bound", p95)
	}
}

// TestAllDownFailsFastWhenEnabled pins the zero-survivors contract under a
// request deadline: calls fail fast with ErrUnavailable, so the tail stays
// flat while errors absorb the blackout. (TestFailureAllContainersDownThenRecover
// pins the same blackout under a nil Resilience.)
func TestAllDownFailsFastWhenEnabled(t *testing.T) {
	res := Resilience{RequestTimeoutMs: 500}
	cfg := resConfig(t, 3_000, 1, res)
	cfg.DurationMin = 3
	cfg.WarmupMin = 0
	cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.0}}
	r := runRes(t, cfg)
	sr := r.PerService["svc"]
	if r.Data.Unavailable == 0 {
		t.Fatal("no call failed fast during the blackout")
	}
	if sr.Errors == 0 {
		t.Fatal("blackout produced no errors")
	}
	// Fail-fast means no 30-second tail of requests waiting out the
	// blackout.
	if p95 := sr.P95(); p95 > 50 {
		t.Fatalf("p95 %v ms: failed-fast blackout should not inflate the success tail", p95)
	}
	if sr.Count == 0 {
		t.Fatal("no request succeeded outside the blackout")
	}
}

// TestClosedLoopSelfThrottlesThroughBlackout is the closed-loop × Failures
// contract: while the only container is down every call fails fast with
// ErrUnavailable, so the container serves nothing, the users cycle through
// errors and think times, and throughput recovers after RecoverMin.
func TestClosedLoopSelfThrottlesThroughBlackout(t *testing.T) {
	cfg := singleMSConfig(t, 0, 1)
	cfg.Patterns = nil
	cfg.Streams = closedLoop("svc", 50)
	cfg.ThinkTimeMs = 100
	cfg.DurationMin = 3
	cfg.WarmupMin = 0
	cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 1.0, RecoverMin: 2.0}}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.Run()
	perMinute := map[int]float64{}
	for _, s := range r.Samples {
		if s.Microservice == "A" {
			perMinute[s.Minute] = s.PerContainerCalls
		}
	}
	healthy, blackout, recovered := perMinute[0], perMinute[1], perMinute[2]
	if healthy == 0 {
		t.Fatal("no calls before the blackout")
	}
	// No call reaches the downed container, so the blackout minute serves
	// almost nothing.
	if blackout > healthy/4 {
		t.Fatalf("closed loop did not self-throttle: %v calls in blackout minute vs %v healthy", blackout, healthy)
	}
	if recovered < healthy/2 {
		t.Fatalf("throughput did not recover after RecoverMin: %v vs %v healthy", recovered, healthy)
	}
	if r.PerService["svc"].Count == 0 {
		t.Fatal("no requests measured")
	}
	if r.PerService["svc"].Errors == 0 {
		t.Fatal("the blackout failed no request")
	}
}

// TestClosedLoopLivenessWithFailFast pins that a request error re-schedules
// the closed-loop user exactly like a success: with every container down for
// the whole run and fail-fast enabled, users keep cycling and accumulate
// errors instead of deadlocking on a request that never completes.
func TestClosedLoopLivenessWithFailFast(t *testing.T) {
	res := Resilience{RequestTimeoutMs: 50}
	cfg := resConfig(t, 0, 1, res)
	cfg.Patterns = nil
	cfg.Streams = closedLoop("svc", 20)
	cfg.ThinkTimeMs = 100
	cfg.DurationMin = 2
	cfg.WarmupMin = 0
	cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.01}} // never recovers
	r := runRes(t, cfg)
	sr := r.PerService["svc"]
	// 20 users cycling every ~100ms for ~2min ⇒ thousands of error cycles.
	if sr.Errors < 1000 {
		t.Fatalf("users deadlocked: only %d error cycles", sr.Errors)
	}
}

// TestResilienceDeterminism pins the determinism contract with every
// resilience feature enabled at once.
func TestResilienceDeterminism(t *testing.T) {
	run := func() (float64, DataStats) {
		res := Resilience{
			RequestTimeoutMs:   100,
			AttemptTimeoutMs:   25,
			MaxAttempts:        3,
			RetryBackoffMs:     2,
			RetryJitter:        0.3,
			RetryBudget:        0.1,
			BreakerFailureRate: 0.5,
			Shed:               true,
		}
		cfg := resConfig(t, 40_000, 2, res)
		cfg.DurationMin = 2
		cfg.WarmupMin = 0.25
		cfg.Failures = []Failure{{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.25}}
		r := runRes(t, cfg)
		return r.PerService["svc"].P95(), r.Data
	}
	p1, d1 := run()
	p2, d2 := run()
	if p1 != p2 || d1 != d2 {
		t.Fatalf("resilient run not deterministic: p95 %v vs %v, data %+v vs %+v", p1, d1, p2, d2)
	}
}
