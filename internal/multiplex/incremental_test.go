package multiplex

import (
	"fmt"
	"reflect"
	"testing"

	"erms/internal/apps"
	"erms/internal/graph"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/scaling"
	"erms/internal/stats"
	"erms/internal/workload"
)

// planIncremental is the test harness shorthand: one window through the
// incremental planner, failing the test on error.
func planIncremental(t *testing.T, p *IncrementalPlanner, scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string, ctx string) *Plan {
	t.Helper()
	plan, err := p.PlanScheme(scheme, inputs, loads, shared)
	if err != nil {
		t.Fatalf("%s: incremental: %v", ctx, err)
	}
	return plan
}

// TestIncrementalByteIdenticalOnScaleTopology: on the Alibaba-shape
// topology, the incremental planner reproduces the oracle bit for bit at
// shard counts 1, 2, 4 and 16 (one shard per pool worker), for every
// scheme, across repeated and mutated windows — and actually skips on the
// unchanged window. It also pins the ownership contract: a clean window
// hands back the very same allocation objects (nothing is cloned), and a
// plan returned earlier is untouched by a later replan of its services.
func TestIncrementalByteIdenticalOnScaleTopology(t *testing.T) {
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 11, Services: 30, MicroservicesPerService: 12, SharingDegree: 5,
	})
	defer parallel.SetWorkers(0)
	for _, scheme := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared} {
		for _, shards := range []int{1, 2, 4, 16} {
			parallel.SetWorkers(shards)
			p := NewIncrementalPlanner(nil)
			ctx := fmt.Sprintf("%v shards=%d", scheme, shards)

			want, err := monolithicPlan(scheme, inputs, loads, shared, nil)
			if err != nil {
				t.Fatalf("%s: oracle: %v", ctx, err)
			}
			cold := planIncremental(t, p, scheme, inputs, loads, shared, ctx+" w1")
			requirePlanBitIdentical(t, want, cold, ctx+" cold window")
			wantCold := want

			// Unchanged window: everything skips, output still identical.
			before := p.Stats()
			got := planIncremental(t, p, scheme, inputs, loads, shared, ctx+" w2")
			requirePlanBitIdentical(t, want, got, ctx+" warm window")
			after := p.Stats()
			if skipped := after.SkippedServices - before.SkippedServices; skipped != uint64(len(inputs)) {
				t.Fatalf("%s: warm window skipped %d services, want all %d", ctx, skipped, len(inputs))
			}
			for svc, alloc := range cold.PerService {
				if got.PerService[svc] != alloc {
					t.Fatalf("%s: %s: clean window copied the cached allocation", ctx, svc)
				}
			}

			// Mutated window: bump one service's workload; output must match
			// a from-scratch oracle run on the new loads.
			loads["scale-svc-00000"]["pool-00000"] *= 1.25
			want, err = monolithicPlan(scheme, inputs, loads, shared, nil)
			if err != nil {
				t.Fatalf("%s: oracle after mutation: %v", ctx, err)
			}
			got = planIncremental(t, p, scheme, inputs, loads, shared, ctx+" w3")
			requirePlanBitIdentical(t, want, got, ctx+" dirty window")
			requirePlanBitIdentical(t, wantCold, cold, ctx+" cold plan after a later replan")
			loads["scale-svc-00000"]["pool-00000"] /= 1.25
		}
	}
}

// TestIncrementalDirtyClosure pins the dirty-closure rule exactly: a
// change to one service dirties its whole sharing group — every service
// it shares a microservice with, transitively — and nothing else.
//
// With Services % SharingDegree == 0 the scale topology's sharing groups
// are aligned blocks of SharingDegree consecutive services, so the
// expected closure of a single-service change is its block of 3.
func TestIncrementalDirtyClosure(t *testing.T) {
	const services, degree = 12, 3
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 7, Services: services, MicroservicesPerService: 8, SharingDegree: degree,
	})
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(4)
	p := NewIncrementalPlanner(nil)
	planIncremental(t, p, SchemePriority, inputs, loads, shared, "cold")

	groups := p.Groups()
	if len(groups) != services/degree {
		t.Fatalf("got %d sharing groups, want %d: %v", len(groups), services/degree, groups)
	}
	for gi, g := range groups {
		if len(g) != degree {
			t.Fatalf("group %d has %d members, want %d: %v", gi, len(g), degree, g)
		}
		for i, svc := range g {
			if want := fmt.Sprintf("scale-svc-%05d", gi*degree+i); svc != want {
				t.Fatalf("group %d member %d = %s, want %s (aligned blocks)", gi, i, svc, want)
			}
		}
	}

	svcName := func(i int) string { return fmt.Sprintf("scale-svc-%05d", i) }
	cases := []struct {
		name   string
		mutate func()
		dirty  int // services expected to replan
	}{
		{"workload change svc 0 dirties group 0", func() {
			for ms := range loads[svcName(0)] {
				loads[svcName(0)][ms] *= 1.1
			}
		}, degree},
		{"workload change svc 7 dirties group 2", func() {
			loads[svcName(7)][svcName(7)+"-entry"] *= 1.3
		}, degree},
		{"SLA change dirties only the service's group", func() {
			in := inputs[svcName(4)]
			in.SLA = workload.P95SLA(svcName(4), in.SLA.Threshold*1.05)
			inputs[svcName(4)] = in
		}, degree},
		{"private-share change dirties only the owner's group", func() {
			// The entry microservice is private to svc 9; its share lives in
			// the global map but only svc 9's template captures it.
			inputs[svcName(9)].Shares[svcName(9)+"-entry"] *= 1.01
		}, degree},
		{"no change dirties nothing", func() {}, 0},
	}
	for _, tc := range cases {
		tc.mutate()
		before := p.Stats()
		planIncremental(t, p, SchemePriority, inputs, loads, shared, tc.name)
		after := p.Stats()
		dirty := int(after.DirtyServices - before.DirtyServices)
		skipped := int(after.SkippedServices - before.SkippedServices)
		if dirty != tc.dirty || skipped != services-tc.dirty {
			t.Fatalf("%s: dirty=%d skipped=%d, want dirty=%d skipped=%d",
				tc.name, dirty, skipped, tc.dirty, services-tc.dirty)
		}
	}
}

// TestIncrementalErrorMatchesMonolithic: an infeasible service surfaces
// the same wrapped error as the oracle (same service, same
// text), the window fails closed, and the planner recovers once the input
// is fixed — the failed group stays dirty, not poisoned.
func TestIncrementalErrorMatchesMonolithic(t *testing.T) {
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 5, Services: 8, MicroservicesPerService: 6, SharingDegree: 2,
	})
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(3)
	p := NewIncrementalPlanner(nil)
	planIncremental(t, p, SchemePriority, inputs, loads, shared, "w1")

	const victim = "scale-svc-00003"
	good := inputs[victim]
	bad := good
	bad.SLA = workload.P95SLA(victim, 1e-9) // below minimum attainable latency
	inputs[victim] = bad

	_, wantErr := monolithicPlan(SchemePriority, inputs, loads, shared, nil)
	if wantErr == nil {
		t.Fatal("oracle accepted an infeasible SLA")
	}
	_, gotErr := p.PlanScheme(SchemePriority, inputs, loads, shared)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("error mismatch:\n  incremental: %v\n  monolithic:  %v", gotErr, wantErr)
	}

	inputs[victim] = good
	want, err := monolithicPlan(SchemePriority, inputs, loads, shared, nil)
	if err != nil {
		t.Fatalf("oracle after repair: %v", err)
	}
	got := planIncremental(t, p, SchemePriority, inputs, loads, shared, "repaired")
	requirePlanBitIdentical(t, want, got, "window after repaired input")
}

// TestIncrementalOracleUnderRandomMutations is the property test: random
// per-window mutation sequences — workload scaling, SLA changes, share
// edits, graph rebuilds (same shape, new pointer) and structural graph
// edits — against the oracle, run from scratch every window. Plans must be
// bit-identical after every window, at a random shard count per sequence.
func TestIncrementalOracleUnderRandomMutations(t *testing.T) {
	schemes := []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared}
	defer parallel.SetWorkers(0)
	for seed := uint64(1); seed <= 12; seed++ {
		r := stats.NewRNG(seed)
		inputs, loads, shared := randomSharedInputs(seed)
		scheme := schemes[seed%3]
		shards := 1 + r.Intn(4)
		parallel.SetWorkers(shards)
		p := NewIncrementalPlanner(nil)

		// extraStage tracks the structural edit per service: whether the
		// service's chain currently has a third, private stage.
		extraStage := map[string]bool{}
		rebuild := func(svc string) {
			own := "own-" + svc
			g := graph.New(svc, own)
			stage := g.AddStage(g.Root, "P")
			if extraStage[svc] {
				extra := "extra-" + svc
				g.AddStage(stage[0], extra)
				in := inputs[svc]
				if _, ok := in.Models[extra]; !ok {
					in.Models[extra] = constModel{a: 0.001, b: 0.4}
					in.Shares[extra] = 0.0002
				}
				loads[svc][extra] = loads[svc][own]
			} else {
				delete(loads[svc], "extra-"+svc)
			}
			in := inputs[svc]
			in.Graph = g
			// A structural edit moves intercepts; re-derive a feasible SLA.
			_, bOwn := in.Models[own].Params(true, 0, 0)
			_, bP := in.Models["P"].Params(true, 0, 0)
			base := 60 + 100*r.Float64() + bOwn + bP
			if extraStage[svc] {
				base += 0.4 + 5
			}
			in.SLA = workload.P95SLA(svc, base)
			inputs[svc] = in
		}
		svcAt := func(i int) string { return "svc" + string(rune('a'+i%len(inputs))) }

		for window := 0; window < 18; window++ {
			if window > 0 {
				svc := svcAt(r.Intn(len(inputs)))
				switch r.Intn(5) {
				case 0: // workload edit
					for ms := range loads[svc] {
						loads[svc][ms] *= 0.5 + 1.5*r.Float64()
					}
				case 1: // SLA edit (upward — stays feasible)
					in := inputs[svc]
					in.SLA = workload.P95SLA(svc, in.SLA.Threshold*(1+0.2*r.Float64()))
					inputs[svc] = in
				case 2: // share edit on the service's private microservice
					inputs[svc].Shares["own-"+svc] *= 1 + 0.1*r.Float64()
				case 3: // graph rebuild, same structure, fresh pointer
					rebuild(svc)
				case 4: // structural edit: toggle a third stage
					extraStage[svc] = !extraStage[svc]
					rebuild(svc)
				}
			}
			ctx := fmt.Sprintf("seed %d %v shards=%d window %d", seed, scheme, shards, window)
			want, err := monolithicPlan(scheme, inputs, loads, shared, nil)
			if err != nil {
				t.Fatalf("%s: oracle: %v", ctx, err)
			}
			got := planIncremental(t, p, scheme, inputs, loads, shared, ctx)
			requirePlanBitIdentical(t, want, got, ctx)
		}
	}
}

// tiedInputs builds services sharing P whose own microservices have one and
// the same model and share, so equal SLAs and loads give bit-equal targets at
// P: the rank order is then decided by the service-name tie-break alone.
func tiedInputs(svcs ...string) (map[string]scaling.Input, map[string]map[string]float64, []string) {
	models := map[string]profiling.Model{"P": constModel{a: 0.002, b: 1}}
	shares := map[string]float64{"P": 0.0002}
	inputs := map[string]scaling.Input{}
	loads := map[string]map[string]float64{}
	for _, svc := range svcs {
		own := "own-" + svc
		g := graph.New(svc, own)
		g.AddStage(g.Root, "P")
		models[own] = constModel{a: 0.003, b: 2}
		shares[own] = 0.0002
		inputs[svc] = scaling.Input{Graph: g, SLA: workload.P95SLA(svc, 80), Models: models, Shares: shares}
		loads[svc] = map[string]float64{own: 9000, "P": 9000}
	}
	return inputs, loads, []string{"P"}
}

// TestIncrementalRanksReorderAndTie: the rank order the planner carries from
// window to window must land where the oracle's from-scratch sort lands — when
// targets cross, and when they tie exactly and the service name decides, also
// against the order the previous window left behind. The rank map is handed
// out again while the order holds and replaced, never edited, when it moves.
func TestIncrementalRanksReorderAndTie(t *testing.T) {
	inputs, loads, shared := tiedInputs("svca", "svcb", "svcc")
	setSLA := func(svc string, ms float64) {
		in := inputs[svc]
		in.SLA = workload.P95SLA(svc, ms)
		inputs[svc] = in
	}
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	p := NewIncrementalPlanner(nil)
	var prev *Plan
	for i, step := range []struct {
		name   string
		mutate func()
		want   map[string]int
		same   bool // the rank map of the window before is handed out again
	}{
		{"tighter SLA ranks first", func() { setSLA("svcc", 40); setSLA("svcb", 60) },
			map[string]int{"svcc": 0, "svcb": 1, "svca": 2}, false},
		{"a load change that keeps the order", func() { loads["svca"]["own-svca"] = 12000 },
			map[string]int{"svcc": 0, "svcb": 1, "svca": 2}, true},
		{"exact three-way tie falls back to names", func() {
			setSLA("svcc", 80)
			setSLA("svcb", 80)
			loads["svca"]["own-svca"] = 9000
		}, map[string]int{"svca": 0, "svcb": 1, "svcc": 2}, false},
		{"nothing changes", func() {}, map[string]int{"svca": 0, "svcb": 1, "svcc": 2}, true},
		{"one leaves the tie", func() { setSLA("svca", 90) },
			map[string]int{"svcb": 0, "svcc": 1, "svca": 2}, false},
	} {
		step.mutate()
		want, err := monolithicPlan(SchemePriority, inputs, loads, shared, nil)
		if err != nil {
			t.Fatalf("%s: oracle: %v", step.name, err)
		}
		got := planIncremental(t, p, SchemePriority, inputs, loads, shared, step.name)
		requirePlanBitIdentical(t, want, got, step.name)
		if !reflect.DeepEqual(got.Ranks["P"], step.want) {
			t.Fatalf("%s: ranks at P = %v, want %v", step.name, got.Ranks["P"], step.want)
		}
		if i > 0 {
			same := reflect.ValueOf(got.Ranks["P"]).Pointer() == reflect.ValueOf(prev.Ranks["P"]).Pointer()
			if same != step.same {
				t.Fatalf("%s: previous rank map handed out again = %v, want %v", step.name, same, step.same)
			}
		}
		prev = got
	}
}

// TestIncrementalWorkloadEdgeCasesMatchOracle: what the loads list, and not
// only its values, decides an FCFS plan — a listed zero at a shared
// microservice is replaced by the aggregate and plans, an unlisted one stays
// missing and fails — and the planner reads it the way the oracle does, in
// every scheme, down to which service's error surfaces.
func TestIncrementalWorkloadEdgeCasesMatchOracle(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	for _, tc := range []struct {
		name   string
		mutate func(loads map[string]map[string]float64)
	}{
		{"listed zero at the shared microservice", func(l map[string]map[string]float64) { l["svcb"]["P"] = 0 }},
		{"negative at the shared microservice", func(l map[string]map[string]float64) { l["svcb"]["P"] = -50 }},
		{"shared microservice not listed", func(l map[string]map[string]float64) { delete(l["svcb"], "P") }},
		{"private microservice not listed", func(l map[string]map[string]float64) { delete(l["svcc"], "own-svcc") }},
		{"two services short of a workload", func(l map[string]map[string]float64) {
			delete(l["svcc"], "P")
			l["svca"]["own-svca"] = 0
		}},
		{"no workloads at all", func(l map[string]map[string]float64) { l["svcb"] = map[string]float64{} }},
	} {
		for _, scheme := range []Scheme{SchemePriority, SchemeFCFS, SchemeNonShared} {
			inputs, loads, shared := tiedInputs("svca", "svcb", "svcc")
			p := NewIncrementalPlanner(nil)
			ctx := fmt.Sprintf("%s, %v", tc.name, scheme)
			planIncremental(t, p, scheme, inputs, loads, shared, ctx+": warm-up")
			tc.mutate(loads)
			want, wantErr := monolithicPlan(scheme, inputs, loads, shared, nil)
			got, gotErr := p.PlanScheme(scheme, inputs, loads, shared)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s: error mismatch:\n  incremental: %v\n  oracle:      %v", ctx, gotErr, wantErr)
			}
			if wantErr == nil {
				requirePlanBitIdentical(t, want, got, ctx)
			}
		}
	}
}

// TestIncrementalAcrossWorkersAndShards: every worker pool size, and with
// it every shard count (one shard per worker), renders one identical plan —
// the sharded fan-out must not leak scheduling order into the fold.
func TestIncrementalAcrossWorkersAndShards(t *testing.T) {
	inputs, loads, shared := scaleInputs(apps.ScaleConfig{
		Seed: 13, Services: 20, MicroservicesPerService: 10, SharingDegree: 4,
	})
	defer parallel.SetWorkers(0)
	want, err := monolithicPlan(SchemePriority, inputs, loads, shared, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 16} {
		parallel.SetWorkers(workers)
		p := NewIncrementalPlanner(nil)
		ctx := fmt.Sprintf("workers=%d", workers)
		got := planIncremental(t, p, SchemePriority, inputs, loads, shared, ctx)
		requirePlanBitIdentical(t, want, got, ctx+" cold")
		got = planIncremental(t, p, SchemePriority, inputs, loads, shared, ctx)
		requirePlanBitIdentical(t, want, got, ctx+" warm")
	}
}
