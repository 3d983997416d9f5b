package experiments

import (
	"fmt"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/parallel"
	"erms/internal/sim"
	"erms/internal/workload"
)

func init() {
	register("fig23", Fig23)
}

// fig23Seed seeds every variant's simulation; the variants share it so each
// faces the same arrival process and the same crash timing.
const fig23Seed = 23

// fig23Variant is one retry policy under test.
type fig23Variant struct {
	name string
	res  sim.Resilience
}

// fig23Outcome aggregates one variant's run.
type fig23Outcome struct {
	viol     float64 // SLA violation rate incl. errors
	errs     float64 // error rate
	goodput  float64 // requests within SLA per minute
	attempts float64 // call attempts per request (amplification)
	data     sim.DataStats
	count    int
}

// Fig23 is the retry-storm experiment: a three-tier chain (frontend → mid →
// backend) sized so the backend runs near 60% utilization loses half its
// capacity to a container crash mid-run. Three data-plane policies face the
// byte-identical fault and arrival schedule:
//
//   - no-retries: per-attempt timeouts and deadline propagation only; a
//     timed-out call fails to the client immediately.
//   - unbounded-retries: the naive policy — every edge retries up to 4
//     attempts with no retry budget and no breaker. Nested per-edge retries
//     multiply (4 × 4 × 4 worst case), so the saturated backend sees its
//     offered load amplified while it can least afford it.
//   - budgeted+breaker: the same 4 attempts, but a 10%-of-successes retry
//     budget, a circuit breaker per (service, microservice), and
//     deadline-derived admission control.
//
// Expected ordering on SLA violation rate: unbounded-retries worst,
// budgeted+breaker ≈ no-retries (the paper's SLA guarantee survives retries
// only when they are budgeted).
func Fig23(quick bool) []*Table {
	durationMin := 6.0
	warmupMin := 0.5
	failAt, recoverAt := 1.5, 3.5
	rate := 36_000.0 // req/min ≈ 60% of the 2-container backend capacity
	if quick {
		durationMin = 4.0
		failAt, recoverAt = 1.0, 2.5
	}

	base := sim.Resilience{
		TimeoutSLAMultiple: 3,  // request deadline = 3 × SLA threshold
		AttemptTimeoutMs:   25, // per-edge attempt timeout
		RetryBackoffMs:     2,
		RetryJitter:        0.2,
	}
	noRetry := base
	noRetry.MaxAttempts = 1
	unbounded := base
	unbounded.MaxAttempts = 4
	unbounded.RetryBudget = 0 // unbounded: the naive storm
	budgeted := base
	budgeted.MaxAttempts = 4
	budgeted.RetryBudget = 0.1
	budgeted.RetryBurst = 10
	budgeted.BreakerFailureRate = 0.5
	budgeted.BreakerWindow = 64
	budgeted.BreakerMinSamples = 20
	budgeted.BreakerCooldownMs = 100
	budgeted.BreakerProbes = 2
	budgeted.Shed = true

	variants := []fig23Variant{
		{"no-retries", noRetry},
		{"unbounded-retries", unbounded},
		{"budgeted+breaker", budgeted},
	}

	// The variants are independent simulations sharing only read-only
	// inputs; each builds a private cluster and graph, so the fan-out is
	// trivially deterministic at any worker count.
	outs, err := parallel.Map(len(variants), func(i int) (fig23Outcome, error) {
		return runRetryStorm(variants[i].res, rate, durationMin, warmupMin, failAt, recoverAt)
	})
	if err != nil {
		panic(err)
	}

	tab := &Table{
		ID:    "fig23",
		Title: "Retry storm under a mid-run backend crash: naive vs budgeted retries",
		Header: []string{"policy", "violation rate", "error rate", "goodput req/min",
			"attempts/req", "retries", "timeouts", "breaker opens", "shed"},
	}
	for i, v := range variants {
		o := outs[i]
		tab.AddRow(v.name, f3(o.viol), f3(o.errs), f1(o.goodput), f2(o.attempts),
			fmt.Sprintf("%d", o.data.Retries), fmt.Sprintf("%d", o.data.Timeouts),
			fmt.Sprintf("%d", o.data.BreakerOpens), fmt.Sprintf("%d", o.data.Shed))
	}
	tab.AddNote("one of two backend containers crashes at min %.1f and recovers at min %.1f; the surviving half is ~20%% over capacity", failAt, recoverAt)
	tab.AddNote("expected ordering on violation rate: unbounded-retries worst (nested per-edge retries amplify offered load into the saturated backend), budgeted+breaker ≈ no-retries")
	tab.AddNote("measured: no-retries %s, unbounded-retries %s, budgeted+breaker %s",
		f3(outs[0].viol), f3(outs[1].viol), f3(outs[2].viol))
	return []*Table{tab}
}

// runRetryStorm simulates the three-tier chain under one resilience policy.
func runRetryStorm(res sim.Resilience, rate, durationMin, warmupMin, failAt, recoverAt float64) (fig23Outcome, error) {
	g := graph.New("checkout", "frontend")
	mid := g.AddStage(g.Root, "mid")[0]
	g.AddStage(mid, "backend")

	cl := cluster.New(3, cluster.PaperHost)
	spec := func(ms string) cluster.ContainerSpec {
		return cluster.ContainerSpec{Microservice: ms, CPU: 0.1, MemMB: 200, Threads: 2}
	}
	host := 0
	for _, ms := range []string{"frontend", "mid", "backend"} {
		for k := 0; k < 2; k++ {
			if _, err := cl.Place(spec(ms), host%cl.NumHosts()); err != nil {
				return fig23Outcome{}, err
			}
			host++
		}
	}

	cfg := sim.Config{
		Seed:         fig23Seed,
		Cluster:      cl,
		Interference: defaultInterference(),
		Profiles: map[string]sim.ServiceProfile{
			"frontend": {BaseMs: 1, CV: 0.5},
			"mid":      {BaseMs: 2, CV: 0.5},
			"backend":  {BaseMs: 4, CV: 0.5},
		},
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"checkout": workload.Static{Rate: rate}},
		SLAs:           map[string]workload.SLA{"checkout": workload.P95SLA("checkout", 30)},
		DurationMin:    durationMin,
		WarmupMin:      warmupMin,
		NetworkDelayMs: 0.05,
		Failures: []sim.Failure{
			{Microservice: "backend", Index: 0, AtMin: failAt, RecoverMin: recoverAt},
		},
		Resilience: &res,
	}
	r, err := sim.Run(cfg, sim.PartitionOpts{})
	if err != nil {
		return fig23Outcome{}, err
	}
	sr := r.PerService["checkout"]
	total := sr.Count + sr.Errors
	out := fig23Outcome{
		viol:  sr.ViolationRate(),
		errs:  sr.ErrorRate(),
		data:  r.Data,
		count: total,
	}
	if r.SimulatedMin > 0 {
		out.goodput = float64(sr.Good()) / r.SimulatedMin
	}
	if total > 0 {
		out.attempts = float64(r.Data.Attempts) / float64(total)
	}
	return out, nil
}
