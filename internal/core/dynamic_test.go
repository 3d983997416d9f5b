package core

import (
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/sim"
	"erms/internal/workload"
)

// dynamicFixture builds two dissimilar variant families of one service plus
// the models/shares planning needs.
func dynamicFixture() (variants []*graph.Graph, models map[string]profiling.Model, shares map[string]float64) {
	// Family 1: entry -> a -> b (reads).
	mk1 := func() *graph.Graph {
		g := graph.New("svc", "entry")
		a := g.AddStage(g.Root, "read-a")[0]
		g.AddStage(a, "read-b")
		return g
	}
	// Family 2: entry -> c, d, e (writes).
	mk2 := func() *graph.Graph {
		g := graph.New("svc", "entry")
		c := g.AddStage(g.Root, "write-c")[0]
		g.AddStage(c, "write-d", "write-e")
		return g
	}
	variants = []*graph.Graph{mk1(), mk1(), mk1(), mk2()}
	profiles := map[string]sim.ServiceProfile{
		"entry": {BaseMs: 0.5}, "read-a": {BaseMs: 2}, "read-b": {BaseMs: 3},
		"write-c": {BaseMs: 2}, "write-d": {BaseMs: 4}, "write-e": {BaseMs: 3},
	}
	models = profiling.AnalyticModels(profiles, nil, cluster.DefaultInterference)
	cl := cluster.NewPaperCluster()
	shares = map[string]float64{}
	for ms := range profiles {
		shares[ms] = cl.DominantShare(cluster.PaperContainer(ms))
	}
	return
}

func TestDynamicGraphPlanSavesContainers(t *testing.T) {
	variants, models, shares := dynamicFixture()
	// 75% of requests follow the read family, 25% the write family.
	weights := []float64{1, 1, 1, 1}
	res, err := DynamicGraphPlan("svc", variants, weights, 200_000,
		workload.P95SLA("svc", 40), models, shares, 0.2, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 2 {
		t.Fatalf("classes = %d", res.Classes)
	}
	if res.ClassContainers >= res.CompleteContainers {
		t.Fatalf("clustering did not save: class %d vs complete %d",
			res.ClassContainers, res.CompleteContainers)
	}
	if res.Saving <= 0 {
		t.Fatalf("saving = %v", res.Saving)
	}
	// Per-class planning is each weighted class planned on its own: the read
	// class at 3/4 of the rate, the write class at 1/4.
	var sum int
	for _, c := range []struct {
		variant *graph.Graph
		rate    float64
	}{{variants[0], 150_000}, {variants[3], 50_000}} {
		alone, err := DynamicGraphPlan("svc", []*graph.Graph{c.variant}, nil, c.rate,
			workload.P95SLA("svc", 40), models, shares, 0.2, 0.2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sum += alone.CompleteContainers
	}
	if res.ClassContainers != sum {
		t.Fatalf("class containers = %d, want %d: the classes planned on their own", res.ClassContainers, sum)
	}
}

func TestDynamicGraphPlanSingleVariantNoSaving(t *testing.T) {
	variants, models, shares := dynamicFixture()
	res, err := DynamicGraphPlan("svc", variants[:1], nil, 100_000,
		workload.P95SLA("svc", 40), models, shares, 0.2, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 1 {
		t.Fatalf("classes = %d", res.Classes)
	}
	if res.ClassContainers != res.CompleteContainers {
		t.Fatalf("single variant should be identical: %d vs %d",
			res.ClassContainers, res.CompleteContainers)
	}
}

func TestDynamicGraphPlanErrors(t *testing.T) {
	variants, models, shares := dynamicFixture()
	sla := workload.P95SLA("svc", 40)
	if _, err := DynamicGraphPlan("svc", nil, nil, 100, sla, models, shares, 0, 0, 0.5); err == nil {
		t.Fatal("no variants accepted")
	}
	if _, err := DynamicGraphPlan("svc", variants, []float64{1}, 100, sla, models, shares, 0, 0, 0.5); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	if _, err := DynamicGraphPlan("svc", variants, []float64{-1, 0, 0, 0}, 100, sla, models, shares, 0, 0, 0.5); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := DynamicGraphPlan("svc", variants, []float64{0, 0, 0, 0}, 100, sla, models, shares, 0, 0, 0.5); err == nil {
		t.Fatal("zero weights accepted")
	}
}
