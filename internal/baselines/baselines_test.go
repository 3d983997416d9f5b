package baselines

import (
	"math"
	"slices"
	"testing"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/workload"
)

// constModel is a single-interval model for tests.
type constModel struct {
	a, b, knee float64
}

func (m constModel) Knee(_, _ float64) float64                        { return m.knee }
func (m constModel) Params(bool, float64, float64) (float64, float64) { return m.a, m.b }
func (m constModel) Predict(w, _, _ float64) float64                  { return m.a*w + m.b }

// at is ms's position in a.Microservices, which indexes its entries in the
// allocation's decision slices; -1 if the service has no such microservice.
func at(a *scaling.Allocation, ms string) int { return slices.Index(a.Microservices, ms) }

// upChain builds the Fig. 4 scenario: U (workload-sensitive) then P (not).
func upChain(sla float64, rate float64) Input {
	g := graph.New("svc", "U")
	g.AddStage(g.Root, "P")
	return Input{
		Graph: g,
		SLA:   workload.P95SLA("svc", sla),
		Models: map[string]profiling.Model{
			"U": constModel{a: 0.01, b: 2, knee: 400000},
			"P": constModel{a: 0.001, b: 2, knee: 800000},
		},
		Shares:    map[string]float64{"U": 0.0002, "P": 0.0002},
		Workloads: map[string]float64{"U": rate, "P": rate},
		Stats: map[string]MSStats{
			// Mean latencies are similar at the profiled operating point —
			// precisely why mean-based splits mislead.
			"U": {MeanMs: 6, VarMs: 9, CorrE2E: 0.9},
			"P": {MeanMs: 5, VarMs: 1, CorrE2E: 0.6},
		},
	}
}

func TestGrandSLAmTargetsProportionalToMean(t *testing.T) {
	in := upChain(100, 10000)
	alloc, err := GrandSLAm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// target(U)/target(P) = mean(U)/mean(P) = 6/5.
	ratio := alloc.Targets["U"] / alloc.Targets["P"]
	if math.Abs(ratio-1.2) > 1e-9 {
		t.Fatalf("target ratio = %v, want 1.2", ratio)
	}
	// Path sum equals SLA.
	if math.Abs(alloc.Targets["U"]+alloc.Targets["P"]-100) > 1e-9 {
		t.Fatalf("targets sum = %v", alloc.Targets["U"]+alloc.Targets["P"])
	}
}

func TestRhythmUsesContribution(t *testing.T) {
	in := upChain(100, 10000)
	alloc, err := Rhythm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// Contribution(U) = cbrt(6*9*0.9) = cbrt(48.6), contribution(P) =
	// cbrt(5*1*0.6) = cbrt(3): U gets the larger share.
	ratio := alloc.Targets["U"] / alloc.Targets["P"]
	want := math.Cbrt(48.6) / math.Cbrt(3)
	if math.Abs(ratio-want) > 1e-6 {
		t.Fatalf("rhythm ratio = %v, want %v", ratio, want)
	}
}

func TestFirmMeetsSLAByIteration(t *testing.T) {
	in := upChain(60, 20000)
	alloc, err := Firm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	lat := func(n *graph.Node) float64 {
		ms := n.Microservice
		per := in.Workloads[ms] / float64(alloc.Containers[at(alloc, ms)])
		return in.Models[ms].Predict(per, 0, 0)
	}
	if e2e := in.Graph.EndToEnd(lat); e2e > 60 {
		t.Fatalf("firm end-to-end %v exceeds SLA", e2e)
	}
}

func TestErmsBeatsBaselinesOnSensitiveChain(t *testing.T) {
	// The Fig. 4 claim: with one workload-sensitive microservice, Erms'
	// optimal split uses fewer resources than mean-based splits at the same
	// modeled SLA.
	in := upChain(100, 30000)
	ermsIn := scaling.Input{
		Graph:     in.Graph,
		SLA:       in.SLA,
		Models:    in.Models,
		Shares:    in.Shares,
		Workloads: in.Workloads,
	}
	erms, err := scaling.Plan(ermsIn)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := GrandSLAm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Rhythm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if erms.ResourceUsage >= gs.ResourceUsage {
		t.Fatalf("erms %v >= grandslam %v", erms.ResourceUsage, gs.ResourceUsage)
	}
	if erms.ResourceUsage >= rh.ResourceUsage {
		t.Fatalf("erms %v >= rhythm %v", erms.ResourceUsage, rh.ResourceUsage)
	}
	// And Erms gives the sensitive microservice the HIGHER target (Fig. 4a).
	if erms.Targets["U"] <= erms.Targets["P"] {
		t.Fatalf("erms targets: U=%v P=%v", erms.Targets["U"], erms.Targets["P"])
	}
}

func TestSizeForTargetClampsImpossibleTargets(t *testing.T) {
	m := constModel{a: 0.001, b: 5, knee: 1000}
	// Target below the intercept: clamp to the 10%-of-knee cap.
	n := sizeForTarget(m, 10000, 1, 0, 0)
	want := 10000 / (1000 * 0.1)
	if math.Abs(n-want) > 1e-9 {
		t.Fatalf("clamped n = %v, want %v", n, want)
	}
}

func TestPlanValidation(t *testing.T) {
	in := upChain(100, 1000)
	delete(in.Stats, "U")
	if _, err := (GrandSLAm{}).Plan(in); err == nil {
		t.Fatal("grandslam accepted missing stats")
	}
	if _, err := (Rhythm{}).Plan(in); err == nil {
		t.Fatal("rhythm accepted missing stats")
	}
	in2 := upChain(100, 1000)
	delete(in2.Models, "P")
	for _, s := range []Autoscaler{GrandSLAm{}, Rhythm{}, Firm{}} {
		if _, err := s.Plan(in2); err == nil {
			t.Fatalf("%s accepted missing model", s.Name())
		}
	}
}

func TestPlanServicesSharedMax(t *testing.T) {
	mkIn := func(svc, own string) Input {
		g := graph.New(svc, own)
		g.AddStage(g.Root, "P")
		return Input{
			Graph: g,
			SLA:   workload.P95SLA(svc, 100),
			Models: map[string]profiling.Model{
				own: constModel{a: 0.002, b: 2, knee: 400000},
				"P": constModel{a: 0.001, b: 1, knee: 800000},
			},
			Shares:    map[string]float64{own: 0.0002, "P": 0.0002},
			Workloads: map[string]float64{},
			Stats: map[string]MSStats{
				own: {MeanMs: 5, VarMs: 2, CorrE2E: 0.8},
				"P": {MeanMs: 3, VarMs: 1, CorrE2E: 0.5},
			},
		}
	}
	inputs := map[string]Input{
		"svc1": mkIn("svc1", "U"),
		"svc2": mkIn("svc2", "H"),
	}
	loads := map[string]map[string]float64{
		"svc1": {"U": 10000, "P": 10000},
		"svc2": {"H": 5000, "P": 5000},
	}
	per, merged, err := PlanServices(GrandSLAm{}, inputs, loads, []string{"P"})
	if err != nil {
		t.Fatal(err)
	}
	// Both services see the aggregate 15000 at P.
	maxP := 0
	for _, alloc := range per {
		if n := alloc.Containers[at(alloc, "P")]; n > maxP {
			maxP = n
		}
	}
	if merged["P"] != maxP {
		t.Fatalf("merged P = %d, want max %d", merged["P"], maxP)
	}
	if merged["U"] != per["svc1"].Containers[at(per["svc1"], "U")] {
		t.Fatal("private microservice merge wrong")
	}
	// PlanEach, fed the same loads, aggregates nothing: svc2 alone offers
	// 5000 at P and needs less capacity there.
	own, _, err := PlanEach(GrandSLAm{}, inputs, loads, []string{"P"})
	if err != nil {
		t.Fatal(err)
	}
	if got, agg := own["svc2"].ContainersRaw[at(own["svc2"], "P")], per["svc2"].ContainersRaw[at(per["svc2"], "P")]; got >= agg {
		t.Fatalf("svc2 on its own load needs %v containers at P, aggregated %v", got, agg)
	}
	if _, _, err := PlanServices(GrandSLAm{}, nil, nil, nil); err == nil {
		t.Fatal("empty inputs accepted")
	}
}

func TestFirmOverprovisionsVsErmsUnderHighLoad(t *testing.T) {
	// Fig. 11: Firm's coarse bottleneck-chasing needs more containers than
	// Erms' global optimum, especially at high workload.
	in := upChain(60, 50000)
	firm, err := Firm{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	erms, err := scaling.Plan(scaling.Input{
		Graph: in.Graph, SLA: in.SLA, Models: in.Models,
		Shares: in.Shares, Workloads: in.Workloads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if firm.TotalContainers() < erms.TotalContainers() {
		t.Fatalf("firm %d < erms %d containers", firm.TotalContainers(), erms.TotalContainers())
	}
}
