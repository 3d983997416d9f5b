package scaling_test

import (
	"testing"

	"erms/internal/baselines"
	"erms/internal/scaling"
)

// TestSortedTargets: every constructor of an Allocation — the template, the
// proportional baselines' finalize and Firm — lists the service's
// microservices sorted, as the key set of Targets, with one entry per
// microservice in each decision slice.
func TestSortedTargets(t *testing.T) {
	in := scaling.Fig7Input()
	tpl, err := scaling.Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	erms, err := tpl.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
	if err != nil {
		t.Fatal(err)
	}
	if got := erms.Microservices; len(got) != 4 || got[0] != "C" {
		t.Fatalf("template order = %v", got)
	}
	bin := baselines.Input{
		Graph: in.Graph, SLA: in.SLA, Models: in.Models, Shares: in.Shares, Workloads: in.Workloads,
		Stats: make(map[string]baselines.MSStats, len(in.Workloads)),
	}
	for ms := range in.Workloads {
		bin.Stats[ms] = baselines.MSStats{MeanMs: 5, VarMs: 1, CorrE2E: 0.5}
	}
	allocs := map[string]*scaling.Allocation{"template": erms}
	for _, s := range []baselines.Autoscaler{baselines.GrandSLAm{}, baselines.Rhythm{}, baselines.Firm{}} {
		a, err := s.Plan(bin)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		allocs[s.Name()] = a
	}
	for name, a := range allocs {
		if err := scaling.ShapeErr(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Microservices) != 4 {
			t.Fatalf("%s: microservices %v, want the graph's 4", name, a.Microservices)
		}
	}
}
