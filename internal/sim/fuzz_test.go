package sim

import (
	"math"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/workload"
)

// FuzzConfigValidate varies every float a run's timing and arrivals hang
// on — duration, warm-up, network delay, think time, δ, sample rate, one
// failure's times and a Static rate — on an otherwise valid one-microservice
// config. Whatever the values, validate returns (no panic, no endless walk
// over the minutes), and a config it accepts has only finite values: the
// bug class of a NaN failure time that ran wherever the heap's sifts left
// it, and of a NaN rate that hung stats.Poisson.
func FuzzConfigValidate(f *testing.F) {
	cl := cluster.New(1, cluster.PaperHost)
	if _, err := cl.Place(cluster.PaperContainer("A"), 0); err != nil {
		f.Fatal(err)
	}
	g := graph.New("svc", "A")
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(2.0, 0.5, 0.0, 1000.0, 0.05, 0.1, 0.5, 1.0, 600.0)
	f.Add(1.5, 0.3, 0.2, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, nan)
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, inf, 0.0, 10.0)
	f.Add(1e300, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0)
	f.Fuzz(func(t *testing.T, durationMin, warmupMin, delayMs, thinkMs, delta, sampleRate, failAt, recoverAt, rate float64) {
		cfg := Config{
			Cluster:        cl,
			Profiles:       map[string]ServiceProfile{"A": {BaseMs: 1, CV: 0.5}},
			Graphs:         []*graph.Graph{g},
			Patterns:       map[string]workload.Pattern{"svc": workload.Static{Rate: rate}},
			DurationMin:    durationMin,
			WarmupMin:      warmupMin,
			NetworkDelayMs: delayMs,
			ThinkTimeMs:    thinkMs,
			Delta:          delta,
			SampleRate:     sampleRate,
			Failures:       []Failure{{Microservice: "A", AtMin: failAt, RecoverMin: recoverAt}},
		}
		if err := cfg.validate(); err != nil {
			return
		}
		for name, v := range map[string]float64{
			"DurationMin": durationMin, "WarmupMin": warmupMin, "NetworkDelayMs": delayMs,
			"ThinkTimeMs": thinkMs, "Delta": delta, "SampleRate": sampleRate,
			"Failures[0].AtMin": failAt, "Failures[0].RecoverMin": recoverAt, "Static rate": rate,
		} {
			if !finite(v) {
				t.Fatalf("accepted a config with %s = %v", name, v)
			}
		}
	})
}

// FuzzRequestAccounting varies one failure — its scope (a container of A or
// of B, or a host), which container or host, when it strikes and whether and
// when it recovers — and the attempt loop's MaxAttempts and AttemptTimeoutMs
// on the two-microservice chain of chainConfig. Whatever the values, a run
// whose config validates neither panics nor loses a request: every request
// issued ends as a completion or an error before the horizon.
func FuzzRequestAccounting(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.5, 1.0, uint8(0), 0.0)
	f.Add(uint8(1), uint8(1), 0.3, 0.0, uint8(2), 25.0)
	f.Add(uint8(2), uint8(0), 1.0, 0.0, uint8(1), 0.0)
	f.Add(uint8(2), uint8(0), 0.0, 4.0, uint8(3), 1.5)
	f.Add(uint8(1), uint8(0), -1.0, 1.9, uint8(4), 1e9)
	f.Fuzz(func(t *testing.T, scope, index uint8, atMin, recoverMin float64, attempts uint8, attemptTimeoutMs float64) {
		cfg := chainConfig(t)
		fail := Failure{Index: int(index), Host: int(index), AtMin: atMin, RecoverMin: recoverMin}
		switch scope % 3 {
		case 0:
			fail.Microservice = "A"
		case 1:
			fail.Microservice = "B"
		}
		cfg.Failures = []Failure{fail}
		// At most five attempts: backoff doubles per attempt, and the load
		// stops at minute 2 so that every request can end by minute 5.
		cfg.Resilience = &Resilience{MaxAttempts: int(attempts%5) + 1, AttemptTimeoutMs: attemptTimeoutMs}
		rt, err := NewRuntime(cfg)
		if err != nil {
			return
		}
		r := rt.Run()
		if issued, ended := requestTotals(r); issued != ended {
			t.Fatalf("failure %+v, %d attempts, attempt timeout %v ms: %d requests issued, %d ended",
				fail, attempts%5+1, attemptTimeoutMs, issued, ended)
		}
	})
}
