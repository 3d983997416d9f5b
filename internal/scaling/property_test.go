package scaling

import (
	"errors"
	"testing"
	"testing/quick"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/stats"
	"erms/internal/workload"
)

// randomInput builds a random tree topology with random single-interval
// models. The SLA is set to 1.2-3x the feasibility floor so Plan must work
// near its constraint.
func randomInput(seed uint64) Input {
	r := stats.NewRNG(seed)
	n := 3 + r.Intn(25)
	g := graph.New("svc", "m0")
	open := []*graph.Node{g.Root}
	names := []string{"m0"}
	for g.Len() < n {
		p := open[r.Intn(len(open))]
		width := 1 + r.Intn(3)
		if rem := n - g.Len(); width > rem {
			width = rem
		}
		stage := make([]string, width)
		for i := range stage {
			stage[i] = "m" + itoa(g.Len()+i)
			names = append(names, stage[i])
		}
		created := g.AddStage(p, stage...)
		open = append(open, created...)
	}
	in := Input{
		Graph:     g,
		Models:    map[string]profiling.Model{},
		Shares:    map[string]float64{},
		Workloads: map[string]float64{},
		CPUUtil:   r.Float64() * 0.5,
		MemUtil:   r.Float64() * 0.5,
	}
	for _, ms := range names {
		a := 0.0005 + 0.005*r.Float64()
		b := 0.5 + 4*r.Float64()
		knee := 1e12
		if r.Float64() < 0.5 {
			// Realistic two-interval model with a finite knee.
			in.Models[ms] = constModel{aLo: a, bLo: b, aHi: a * 4, bHi: b, knee: 2000 + 30000*r.Float64()}
			knee = 0
		} else {
			in.Models[ms] = constModel{aLo: a, bLo: b, aHi: a, bHi: b, knee: knee}
		}
		_ = knee
		in.Shares[ms] = 0.0001 + 0.0004*r.Float64()
		in.Workloads[ms] = 500 + 20000*r.Float64()
	}
	floor := g.EndToEnd(func(nd *graph.Node) float64 {
		_, b := in.Models[nd.Microservice].Params(false, in.CPUUtil, in.MemUtil)
		return b
	})
	in.SLA = workload.P95SLA("svc", floor*(1.2+1.8*r.Float64()))
	return in
}

// TestPlanFeasibleOnRandomGraphs: the modeled end-to-end latency of every
// plan must respect the SLA — the Eq. 2 constraint — across random
// topologies, models, and workloads.
func TestPlanFeasibleOnRandomGraphs(t *testing.T) {
	f := func(seed uint16) bool {
		in := randomInput(uint64(seed) + 1)
		alloc, err := Plan(in)
		if errors.Is(err, ErrInfeasible) {
			return true // legitimately infeasible corner (tight SLA + knee floors)
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		e2e, err := EndToEndModelLatency(in, containersByName(alloc))
		if err != nil {
			return false
		}
		if e2e > in.SLA.Threshold*1.0001 {
			t.Logf("seed %d: e2e %v > SLA %v", seed, e2e, in.SLA.Threshold)
			return false
		}
		// Every planned microservice has at least one container and a
		// positive target.
		for _, ms := range in.Graph.Microservices() {
			if i := at(alloc, ms); i < 0 || alloc.Containers[i] < 1 || alloc.Targets[ms] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMonotoneInWorkload: raising every workload never lowers the total
// container count.
func TestPlanMonotoneInWorkload(t *testing.T) {
	f := func(seed uint16) bool {
		in := randomInput(uint64(seed) + 777)
		a1, err := Plan(in)
		if err != nil {
			return true
		}
		in2 := in
		in2.Workloads = map[string]float64{}
		for ms, w := range in.Workloads {
			in2.Workloads[ms] = w * 2
		}
		a2, err := Plan(in2)
		if err != nil {
			return true
		}
		return a2.TotalContainers() >= a1.TotalContainers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMonotoneInSLA: loosening the SLA never raises raw resource usage.
func TestPlanMonotoneInSLA(t *testing.T) {
	f := func(seed uint16) bool {
		in := randomInput(uint64(seed) + 31337)
		tight, err := Plan(in)
		if err != nil {
			return true
		}
		loose := in
		loose.SLA.Threshold *= 1.5
		a2, err := Plan(loose)
		if err != nil {
			return false
		}
		return a2.ResourceUsage <= tight.ResourceUsage*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
