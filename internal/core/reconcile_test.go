package core

import (
	"testing"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/kube"
	"erms/internal/sim"
	"erms/internal/trace"
	"erms/internal/workload"
)

func TestReconcilerTracksWorkload(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 1.0

	// Ramp: the load triples over the run.
	var reports []*WindowReport
	for w, rate := range []float64{10_000, 20_000, 30_000} {
		rep, err := r.Step(hotelRates(rate), 5+uint64(w))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if reports[2].Containers <= reports[0].Containers {
		t.Fatalf("containers did not grow with load: %d -> %d",
			reports[0].Containers, reports[2].Containers)
	}
	for _, rep := range reports {
		for svc, v := range rep.Violations {
			if v > 0.05 {
				t.Fatalf("window %d: %s violates %.1f%%", rep.Window, svc, v*100)
			}
		}
	}
	if r.Window() != 3 {
		t.Fatalf("next window = %d after three steps", r.Window())
	}
}

func TestReconcilerHysteresisHoldsSmallDownscales(t *testing.T) {
	c := hotelController(t)
	r := NewReconciler(c)
	r.WindowMin = 0.8
	r.DownscaleSlack = 0.9 // hold almost any scale-down

	if _, err := r.Step(hotelRates(30_000), 1); err != nil {
		t.Fatal(err)
	}
	high := c.Orch.TotalReplicas()
	rep, err := r.Step(hotelRates(8_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	// With the huge slack nothing shrinks.
	if c.Orch.TotalReplicas() < high {
		t.Fatalf("hysteresis failed: %d -> %d", high, c.Orch.TotalReplicas())
	}
	if rep.ScaledDown != 0 {
		t.Fatalf("scaledDown = %d with full slack", rep.ScaledDown)
	}

	// With zero slack the deployment shrinks.
	r2 := NewReconciler(hotelController(t))
	r2.WindowMin = 0.8
	r2.DownscaleSlack = 0
	if _, err := r2.Step(hotelRates(30_000), 3); err != nil {
		t.Fatal(err)
	}
	high2 := r2.C.Orch.TotalReplicas()
	if _, err := r2.Step(hotelRates(8_000), 4); err != nil {
		t.Fatal(err)
	}
	if r2.C.Orch.TotalReplicas() >= high2 {
		t.Fatalf("no-slack reconciler did not shrink: %d -> %d", high2, r2.C.Orch.TotalReplicas())
	}
}

func TestReconcilerErrors(t *testing.T) {
	r := &Reconciler{}
	if _, err := r.Step(nil, 1); err == nil {
		t.Fatal("nil controller accepted")
	}
}

func TestReconcilerRebalances(t *testing.T) {
	c := hotelController(t)
	// Skew the cluster: heavy batch load on half the hosts.
	for i := 0; i < 20; i += 2 {
		c.Orch.Cluster().SetBackground(i, workload.Interference{CPU: 0.6, Mem: 0.6})
	}
	r := NewReconciler(c)
	r.WindowMin = 0.6
	r.RebalanceMoves = 20
	if _, err := r.Step(hotelRates(20_000), 9); err != nil {
		t.Fatal(err)
	}
	with := c.Orch.Cluster().Imbalance()

	c2 := hotelController(t)
	for i := 0; i < 20; i += 2 {
		c2.Orch.Cluster().SetBackground(i, workload.Interference{CPU: 0.6, Mem: 0.6})
	}
	r2 := NewReconciler(c2)
	r2.WindowMin = 0.6
	r2.RebalanceMoves = 0
	if _, err := r2.Step(hotelRates(20_000), 9); err != nil {
		t.Fatal(err)
	}
	without := c2.Orch.Cluster().Imbalance()
	if with > without*1.0001 {
		t.Fatalf("rebalancing made imbalance worse: %v vs %v", with, without)
	}
}

// TestLoopKeepsNoSpans: nothing in the window loop reads spans, so no
// evaluation fills the controller's coordinator. While every window refilled
// it, that unread span store was almost all of a simulating loop's live heap.
func TestLoopKeepsNoSpans(t *testing.T) {
	c, rates := socialController(t)
	r := NewReconciler(c)
	r.WindowMin = 1
	for w := 0; w < 6; w++ {
		if _, err := r.Step(rates, 100+uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.Coordinator.Traces("")); n != 0 {
		t.Fatalf("the loop left %d traces in the controller's coordinator, want 0", n)
	}
}

// TestSampledTracesAreWhole: a coordinator attached to one simulation of the
// social network holds whole traces. Trace IDs are unique within a run, so
// every trace has one root call and at most as many calls as its service's
// graph has nodes; a coordinator kept across two runs would file the second
// run's spans under the first run's IDs.
func TestSampledTracesAreWhole(t *testing.T) {
	c, rates := socialController(t)
	plan, err := c.Plan(rates)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(plan); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]int)
	patterns := make(map[string]workload.Pattern)
	for _, g := range c.App.Graphs {
		nodes[g.Service] = g.Len()
		patterns[g.Service] = workload.Static{Rate: rates[g.Service]}
	}
	coord := trace.NewCoordinator(0.1)
	if _, err := sim.Run(sim.Config{
		Seed:           100,
		Cluster:        c.Orch.Cluster(),
		Interference:   c.Interference,
		Profiles:       c.App.Profiles,
		Graphs:         c.App.Graphs,
		Patterns:       patterns,
		Priorities:     c.Priorities(plan),
		Delta:          c.Delta,
		DurationMin:    1,
		WarmupMin:      0.3,
		NetworkDelayMs: 0.05,
		Observer:       coord,
	}, sim.PartitionOpts{}); err != nil {
		t.Fatal(err)
	}
	traces := coord.Traces("")
	if len(traces) == 0 {
		t.Fatal("no spans sampled")
	}
	for _, tr := range traces {
		roots := 0
		for _, call := range tr.Calls {
			if call.ParentNodeID == -1 {
				roots++
			}
		}
		if roots != 1 || len(tr.Calls) > nodes[tr.Service] {
			t.Fatalf("trace %d of %s has %d roots and %d calls (graph has %d nodes)",
				tr.ID, tr.Service, roots, len(tr.Calls), nodes[tr.Service])
		}
	}
}

// socialController is an analytic-model controller of the social network on
// the paper's cluster, with 4 000 req/min offered to every service.
func socialController(t *testing.T) (*Controller, map[string]float64) {
	t.Helper()
	app := apps.SocialNetwork()
	c, err := New(app, kube.New(cluster.NewPaperCluster(), nil))
	if err != nil {
		t.Fatal(err)
	}
	c.UseAnalyticModels()
	rates := make(map[string]float64)
	for _, g := range app.Graphs {
		rates[g.Service] = 4_000
	}
	return c, rates
}
