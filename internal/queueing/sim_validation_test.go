package queueing_test

import (
	"math"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/queueing"
	"erms/internal/sim"
	"erms/internal/workload"
)

// TestSimulatorMatchesErlangC validates the discrete-event simulator against
// M/M/c theory: a single container with c threads and exponential service
// must reproduce the Erlang-C mean response time.
func TestSimulatorMatchesErlangC(t *testing.T) {
	const (
		threads = 4
		baseMs  = 2.0
		rateMin = 90_000.0 // per minute; rho = 0.75
	)
	g := graph.New("svc", "A")
	cl := cluster.New(1, cluster.HostSpec{Cores: 32, MemGB: 64})
	spec := cluster.ContainerSpec{Microservice: "A", CPU: 0.1, MemMB: 200, Threads: threads}
	if _, err := cl.Place(spec, 0); err != nil {
		t.Fatal(err)
	}
	rt, err := sim.NewRuntime(sim.Config{
		Seed:     3,
		Cluster:  cl,
		Profiles: map[string]sim.ServiceProfile{"A": {BaseMs: baseMs, CV: 1.0}}, // CV=1: exponential-ish
		Graphs:   []*graph.Graph{g},
		Patterns: map[string]workload.Pattern{"svc": workload.Static{Rate: rateMin}},
		// No interference model: inflation = 1 exactly.
		DurationMin: 6,
		WarmupMin:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()
	measured := res.PerService["svc"].Mean()

	q := queueing.MMC{Lambda: rateMin / 60_000, Mu: 1 / baseMs, Servers: threads}
	wait, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	want := wait + baseMs
	if math.Abs(measured-want)/want > 0.12 {
		t.Fatalf("simulator mean %v vs Erlang-C %v (>12%% off)", measured, want)
	}
}
