package sim

import (
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/workload"
)

// chainConfig is a two-microservice chain, svc: A → B, on two hosts: A has
// one container on each host, B has both of its containers on host 0, so
// host 0 holds every replica of B. One stream issues 1 200 requests a
// minute for the first two minutes and none in the last three, so every
// request has ended, one way or the other, well before the horizon.
func chainConfig(tb testing.TB) Config {
	tb.Helper()
	cl := cluster.New(2, cluster.PaperHost)
	for _, p := range []struct {
		ms   string
		host int
	}{{"A", 0}, {"A", 1}, {"B", 0}, {"B", 0}} {
		if _, err := cl.Place(cluster.PaperContainer(p.ms), p.host); err != nil {
			tb.Fatal(err)
		}
	}
	g := graph.New("svc", "A")
	g.AddStage(g.Root, "B")
	return Config{
		Seed:     7,
		Cluster:  cl,
		Profiles: map[string]ServiceProfile{"A": {BaseMs: 2, CV: 0.5}, "B": {BaseMs: 3, CV: 0.5}},
		Graphs:   []*graph.Graph{g},
		SLAs:     map[string]workload.SLA{"svc": workload.P95SLA("svc", 20)},
		Streams: []Stream{{
			Cohort: "load", Service: "svc", Tier: workload.TierStandard,
			Pattern: workload.Trace{Rates: []float64{1200, 1200, 0}, StepMin: 1},
		}},
		DurationMin:    5,
		NetworkDelayMs: 0.05,
	}
}

// requestTotals sums a run's stream rows: requests issued, and requests that
// ended as a completion or an error.
func requestTotals(r *Result) (issued, ended int) {
	for _, m := range r.StreamMinutes {
		issued += m.Issued
		ended += m.Completed + m.Errors
	}
	return issued, ended
}

// TestEveryIssuedRequestEnds is the data plane's accounting identity: every
// issued request ends as a completion or an error, under a nil, a zero and a
// fully configured Resilience alike, through a container crash with
// recovery, the loss for good of the host holding every replica of B, and a
// blackout of every replica of A. The load stops at minute 2 of 5, so a
// request still open at the end was lost, not late. While a nil Resilience
// parked calls on a dead container, the requests issued after host 0 died
// never ended and never counted.
func TestEveryIssuedRequestEnds(t *testing.T) {
	full := &Resilience{
		TimeoutSLAMultiple: 3, AttemptTimeoutMs: 25, MaxAttempts: 3,
		RetryBackoffMs: 1, RetryJitter: 0.2, RetryBudget: 0.1, RetryBurst: 5,
		BreakerFailureRate: 0.5, BreakerCooldownMs: 50, Shed: true, ShedMaxWaitMs: 20,
	}
	faults := []struct {
		name     string
		failures []Failure
		// unavailable: the fault leaves a microservice with no container up,
		// so some calls must fail fast.
		unavailable bool
	}{
		{"container crash with recovery", []Failure{{Microservice: "B", Index: 0, AtMin: 0.5, RecoverMin: 1.0}}, false},
		{"host failure without recovery", []Failure{{Host: 0, AtMin: 1.0}}, true},
		{"every replica down", []Failure{
			{Microservice: "A", Index: 0, AtMin: 0.5, RecoverMin: 1.5},
			{Microservice: "A", Index: 1, AtMin: 0.5, RecoverMin: 1.5},
		}, true},
	}
	for _, res := range []struct {
		name string
		r    *Resilience
	}{{"nil", nil}, {"zero", &Resilience{}}, {"full", full}} {
		for _, fault := range faults {
			t.Run(res.name+"/"+fault.name, func(t *testing.T) {
				cfg := chainConfig(t)
				cfg.Resilience, cfg.Failures = res.r, fault.failures
				r := runRes(t, cfg)
				issued, ended := requestTotals(r)
				if issued == 0 || issued != ended {
					t.Fatalf("%d requests issued, %d ended (%d lost)", issued, ended, issued-ended)
				}
				sr := r.PerService["svc"]
				if sr.Count+sr.Errors != issued {
					t.Errorf("service counted %d completions + %d errors, want %d", sr.Count, sr.Errors, issued)
				}
				if fault.unavailable && (sr.Errors == 0 || r.Data.Unavailable == 0) {
					t.Errorf("outage ended no request as an error: %d errors, %d unavailable calls", sr.Errors, r.Data.Unavailable)
				}
			})
		}
	}
}
