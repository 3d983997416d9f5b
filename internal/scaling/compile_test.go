package scaling

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"erms/internal/graph"
	"erms/internal/profiling"
	"erms/internal/workload"
)

// requireAllocBitIdentical fails unless two allocations are bit-identical in
// every float field — the compiled path's contract is exact replay, not
// approximate agreement.
func requireAllocBitIdentical(t *testing.T, want, got *Allocation, ctx string) {
	t.Helper()
	if len(want.Targets) != len(got.Targets) {
		t.Fatalf("%s: %d targets != %d", ctx, len(got.Targets), len(want.Targets))
	}
	for ms, w := range want.Targets {
		if g, ok := got.Targets[ms]; !ok || math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: target[%s] = %v (bits %x), want %v (bits %x)",
				ctx, ms, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if !slices.Equal(want.Microservices, got.Microservices) {
		t.Fatalf("%s: microservices %v != %v", ctx, got.Microservices, want.Microservices)
	}
	for _, a := range []*Allocation{want, got} {
		if err := ShapeErr(a); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	for i, ms := range want.Microservices {
		if w, g := want.ContainersRaw[i], got.ContainersRaw[i]; math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: raw[%s] = %v, want %v", ctx, ms, g, w)
		}
		if w, g := want.Containers[i], got.Containers[i]; w != g {
			t.Fatalf("%s: containers[%s] = %d, want %d", ctx, ms, g, w)
		}
		if w, g := want.UsedHigh[i], got.UsedHigh[i]; w != g {
			t.Fatalf("%s: usedHigh[%s] = %v, want %v", ctx, ms, g, w)
		}
	}
	if math.Float64bits(want.ResourceUsage) != math.Float64bits(got.ResourceUsage) {
		t.Fatalf("%s: usage %v (bits %x), want %v (bits %x)", ctx,
			got.ResourceUsage, math.Float64bits(got.ResourceUsage),
			want.ResourceUsage, math.Float64bits(want.ResourceUsage))
	}
}

// TestCompiledPlanBitIdenticalOnRandomGraphs: on random topologies (mixing
// one- and two-interval models, SLAs near the feasibility floor) a compiled
// template reproduces the recursive oracle bit for bit — including the
// infeasible error.
func TestCompiledPlanBitIdenticalOnRandomGraphs(t *testing.T) {
	f := func(seed uint16) bool {
		in := randomInput(uint64(seed) + 1)
		want, wantErr := naivePlan(in)
		tpl, err := Compile(in)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		got, gotErr := tpl.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
		if wantErr != nil {
			if gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Logf("seed %d: err %v, want %v", seed, gotErr, wantErr)
				return false
			}
			return true
		}
		if gotErr != nil {
			t.Logf("seed %d: unexpected err %v", seed, gotErr)
			return false
		}
		requireAllocBitIdentical(t, want, got, "random")
		// Re-evaluating the same template must stay bit-identical (scratch
		// reuse must not leak state between windows).
		got2, err := tpl.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
		if err != nil {
			return false
		}
		requireAllocBitIdentical(t, want, got2, "random/reeval")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// duplicateMSInput builds a graph where one microservice occupies several
// positions (the tightest-target / max-containers merge path) and models
// have finite knees so the two-interval flip pass runs.
func duplicateMSInput() Input {
	g := graph.New("dup", "front")
	kids := g.AddStage(g.Root, "mid", "shared")
	g.AddStage(kids[0], "shared", "leafA")
	g.AddStage(kids[1], "leafB")
	g.AddStage(kids[1], "shared")
	in := Input{
		Graph: g,
		SLA:   workload.P95SLA("dup", 90),
		Models: map[string]profiling.Model{
			"front":  constModel{aLo: 0.002, bLo: 2, aHi: 0.008, bHi: 2, knee: 4000},
			"mid":    constModel{aLo: 0.001, bLo: 1.5, aHi: 0.004, bHi: 1.5, knee: 6000},
			"shared": constModel{aLo: 0.003, bLo: 3, aHi: 0.012, bHi: 3, knee: 2500},
			"leafA":  constModel{aLo: 0.0015, bLo: 1, aHi: 0.006, bHi: 1, knee: 5000},
			"leafB":  constModel{aLo: 0.002, bLo: 2.5, aHi: 0.008, bHi: 2.5, knee: 3500},
		},
		Shares: map[string]float64{
			"front": 0.0003, "mid": 0.0002, "shared": 0.0004, "leafA": 0.0001, "leafB": 0.0002,
		},
		Workloads: map[string]float64{
			"front": 6000, "mid": 6000, "shared": 14000, "leafA": 6000, "leafB": 6000,
		},
		CPUUtil: 0.4, MemUtil: 0.3,
	}
	return in
}

func TestCompiledPlanDuplicateMicroservices(t *testing.T) {
	in := duplicateMSInput()
	want, err := naivePlan(in)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	tpl, err := Compile(in)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := tpl.Plan(in.Workloads, in.CPUUtil, in.MemUtil)
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	requireAllocBitIdentical(t, want, got, "dup")
	if len(got.Targets) != 5 {
		t.Fatalf("expected 5 distinct microservices, got %d", len(got.Targets))
	}
}

func TestCompiledPlanInfeasibleErrorMatches(t *testing.T) {
	in := chainInput(t, 4, 200)
	in.SLA.Threshold = 1 // below the sum of intercepts
	_, wantErr := naivePlan(in)
	if !errors.Is(wantErr, ErrInfeasible) {
		t.Fatalf("naive err = %v, want infeasible", wantErr)
	}
	cache := NewTemplateCache()
	_, gotErr := cachedPlan(cache, in)
	if !errors.Is(gotErr, ErrInfeasible) {
		t.Fatalf("cached err = %v, want infeasible", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error text diverged:\n naive: %s\ncached: %s", wantErr, gotErr)
	}
}

// TestUnplannableContainerCountIsAnError: a finite workload large enough that
// the container count does not fit an int used to convert to a negative
// number and be clamped to one container. Both paths now refuse it with the
// same error, naming the first such microservice in sorted order, at the same
// point of the computation — after that pass's infeasibility check, before
// the interval flip.
func TestUnplannableContainerCountIsAnError(t *testing.T) {
	scaled := func(in Input, by float64) Input {
		out := in
		out.Workloads = make(map[string]float64, len(in.Workloads))
		for ms, g := range in.Workloads {
			out.Workloads[ms] = g * by
		}
		return out
	}
	infeasible := scaled(chainInput(t, 4, 200), 1e300)
	infeasible.SLA.Threshold = 1
	for name, tc := range map[string]struct {
		in      Input
		wantErr string
	}{
		"chain":        {scaled(chainInput(t, 4, 200), 1e300), "scaling: microservice ms00 needs"},
		"two-interval": {scaled(duplicateMSInput(), 1e300), "scaling: microservice front needs"},
		"infinite":     {scaled(chainInput(t, 4, 200), math.Inf(1)), "scaling: microservice ms00 needs NaN containers"},
		"infeasible":   {infeasible, ErrInfeasible.Error()},
		"large":        {scaled(chainInput(t, 4, 200), 1e6), ""},
	} {
		want, wantErr := naivePlan(tc.in)
		tpl, err := Compile(tc.in)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		got, gotErr := tpl.Plan(tc.in.Workloads, tc.in.CPUUtil, tc.in.MemUtil)
		if tc.wantErr == "" {
			if wantErr != nil || gotErr != nil {
				t.Fatalf("%s: naive %v, template %v, want a plan", name, wantErr, gotErr)
			}
			requireAllocBitIdentical(t, want, got, name)
			for i, raw := range got.ContainersRaw {
				if n := got.Containers[i]; float64(n) < raw-1e-9 || float64(n) >= raw+1 {
					t.Fatalf("%s: %s: %d containers for a requirement of %v", name, got.Microservices[i], n, raw)
				}
			}
			continue
		}
		if wantErr == nil || !strings.HasPrefix(wantErr.Error(), tc.wantErr) {
			t.Fatalf("%s: naive err = %v, want %q...", name, wantErr, tc.wantErr)
		}
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text diverged:\n    naive: %v\n template: %v", name, wantErr, gotErr)
		}
	}
}

// utilModel is a two-interval model that responds to both utilizations and
// counts its evaluations, for the memo tests.
type utilModel struct {
	constModel
	calls *int
}

func (m utilModel) Knee(cpu, mem float64) float64 {
	*m.calls++
	return m.knee / (1 + cpu + 0.5*mem)
}

func (m utilModel) Params(high bool, cpu, mem float64) (float64, float64) {
	*m.calls++
	a, b := m.constModel.Params(high, cpu, mem)
	return a * (1 + 2*cpu + mem), b * (1 + cpu + 3*mem)
}

// utilInput is duplicateMSInput over utilization-sensitive models.
func utilInput(calls *int) Input {
	in := duplicateMSInput()
	for ms, m := range in.Models {
		in.Models[ms] = utilModel{m.(constModel), calls}
	}
	in.SLA.Threshold = 200
	return in
}

// TestModelMemoKeyedOnBothUtilizations: a template evaluates each model once
// per utilization point — three calls (knee, high and low interval), whatever
// the number of passes and graph positions — not at all while the point
// holds, and again as soon as either coordinate moves, including back to a
// point seen before and to the same two numbers swapped. Every window equals
// the naive plan at that window's utilization.
func TestModelMemoKeyedOnBothUtilizations(t *testing.T) {
	var calls, naiveCalls int
	in, naive := utilInput(&calls), utilInput(&naiveCalls)
	tpl, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := 3 * len(in.Models)
	for i, w := range []struct {
		cpu, mem float64
		fresh    bool
	}{
		{0.2, 0.3, true}, {0.2, 0.3, false}, {0.2, 0.5, true}, {0.4, 0.5, true},
		{0.4, 0.5, false}, {0.2, 0.3, true}, {0.3, 0.2, true}, {0.3, 0.2, false},
	} {
		naive.CPUUtil, naive.MemUtil = w.cpu, w.mem
		want, err := naivePlan(naive)
		if err != nil {
			t.Fatalf("window %d: naive: %v", i, err)
		}
		calls = 0
		got, err := tpl.Plan(in.Workloads, w.cpu, w.mem)
		if err != nil {
			t.Fatalf("window %d: template: %v", i, err)
		}
		requireAllocBitIdentical(t, want, got, fmt.Sprintf("window %d", i))
		if wantCalls := map[bool]int{true: perPoint, false: 0}[w.fresh]; calls != wantCalls {
			t.Fatalf("window %d at (%v, %v): %d model calls, want %d", i, w.cpu, w.mem, calls, wantCalls)
		}
	}
}

// TestSolveWarmZeroAlloc: evaluating a template into a caller's Eval — all
// that the priority scheme's initial pass does — allocates nothing once the
// Eval has grown, whether the utilization holds or moves (a memo refresh).
func TestSolveWarmZeroAlloc(t *testing.T) {
	var calls int
	in := utilInput(&calls)
	tpl, err := Compile(in)
	if err != nil {
		t.Fatal(err)
	}
	mss := tpl.Microservices()
	gamma := make([]float64, len(mss))
	for i, ms := range mss {
		gamma[i] = in.Workloads[ms]
	}
	var e Eval
	cpu := 0.1
	solve := func() {
		cpu = 0.5 - cpu // 0.4, 0.1, 0.4, ...
		for rep := 0; rep < 2; rep++ {
			if err := tpl.Solve(&e, gamma, cpu, 0.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Fatalf("a warm Solve allocates %.1f times, want 0", allocs)
	}
	want, err := tpl.Plan(in.Workloads, cpu, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range mss {
		w := at(want, ms)
		if e.Targets[i] != want.Targets[ms] || e.Raw[i] != want.ContainersRaw[w] ||
			e.Containers[i] != want.Containers[w] || e.UsedHigh[i] != want.UsedHigh[w] {
			t.Fatalf("%s: Solve left %v/%v/%d/%v, Plan says %v/%v/%d/%v", ms,
				e.Targets[i], e.Raw[i], e.Containers[i], e.UsedHigh[i],
				want.Targets[ms], want.ContainersRaw[w], want.Containers[w], want.UsedHigh[w])
		}
	}
}

func TestCompiledPlanWorkloadValidation(t *testing.T) {
	in := chainInput(t, 3, 200)
	tpl, err := Compile(in)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bad := map[string]float64{msName(0): 100, msName(2): 100} // ms01 missing
	_, gotErr := tpl.Plan(bad, 0, 0)
	in.Workloads = bad
	_, wantErr := naivePlan(in)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("workload error mismatch: naive %v, template %v", wantErr, gotErr)
	}
}

// TestCompileToleratesMissingWorkloads: templates can be compiled before the
// first window's loads exist; only Plan needs workloads.
func TestCompileToleratesMissingWorkloads(t *testing.T) {
	in := chainInput(t, 3, 200)
	loads := in.Workloads
	in.Workloads = nil
	tpl, err := Compile(in)
	if err != nil {
		t.Fatalf("compile without workloads: %v", err)
	}
	in.Workloads = loads
	want, err := naivePlan(in)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	got, err := tpl.Plan(loads, 0, 0)
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	requireAllocBitIdentical(t, want, got, "lateloads")
}

// TestTemplateCacheHitsAndWorkloadOnlyChanges: per-window workload and
// utilization changes are served from the cached template, and every window
// matches the naive plan bit for bit.
func TestTemplateCacheHitsAndWorkloadOnlyChanges(t *testing.T) {
	in := duplicateMSInput()
	cache := NewTemplateCache()
	for w := 0; w < 5; w++ {
		scale := 1 + 0.17*float64(w)
		loads := make(map[string]float64, len(in.Workloads))
		for ms, g := range in.Workloads {
			loads[ms] = g * scale
		}
		win := in
		win.Workloads = loads
		win.CPUUtil = 0.2 + 0.1*float64(w)
		want, wantErr := naivePlan(win)
		got, gotErr := cachedPlan(cache, win)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("window %d: naive err %v, cached err %v", w, wantErr, gotErr)
		}
		requireAllocBitIdentical(t, want, got, "window")
	}
	st := cache.Stats()
	if st.Compiles != 1 || st.Hits != 4 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 compile / 4 hits / 0 invalidations", st)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", cache.Len())
	}
}

// TestTemplateCacheInvalidation: every compile-time input (graph shape,
// models, SLA, shares) invalidates the template when mutated, and the
// recompiled plan still matches the naive plan bit for bit.
func TestTemplateCacheInvalidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(in Input) Input
	}{
		{"graph-extra-node", func(in Input) Input {
			g := in.Graph.Clone()
			g.AddStage(g.Root, "extra")
			in.Graph = g
			in.Models["extra"] = mkModel(0.002, 1)
			in.Shares["extra"] = 0.0002
			in.Workloads["extra"] = 4000
			return in
		}},
		{"graph-renamed-leaf", func(in Input) Input {
			g := graph.New("dup", "front")
			kids := g.AddStage(g.Root, "mid", "shared")
			g.AddStage(kids[0], "shared", "leafA2")
			g.AddStage(kids[1], "leafB")
			g.AddStage(kids[1], "shared")
			in.Graph = g
			in.Models["leafA2"] = in.Models["leafA"]
			in.Shares["leafA2"] = in.Shares["leafA"]
			in.Workloads["leafA2"] = in.Workloads["leafA"]
			return in
		}},
		{"graph-stage-split", func(in Input) Input {
			// Same microservice set, different stage structure: leafA and
			// shared move to separate sequential stages under mid.
			g := graph.New("dup", "front")
			kids := g.AddStage(g.Root, "mid", "shared")
			g.AddStage(kids[0], "shared")
			g.AddStage(kids[0], "leafA")
			g.AddStage(kids[1], "leafB")
			g.AddStage(kids[1], "shared")
			in.Graph = g
			return in
		}},
		{"model-swap", func(in Input) Input {
			m := make(map[string]profiling.Model, len(in.Models))
			for ms, mod := range in.Models {
				m[ms] = mod
			}
			m["mid"] = constModel{aLo: 0.0012, bLo: 1.5, aHi: 0.005, bHi: 1.5, knee: 6000}
			in.Models = m
			return in
		}},
		{"sla-change", func(in Input) Input {
			in.SLA.Threshold = 120
			return in
		}},
		{"share-change", func(in Input) Input {
			s := make(map[string]float64, len(in.Shares))
			for ms, v := range in.Shares {
				s[ms] = v
			}
			s["shared"] = 0.0005
			in.Shares = s
			return in
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := duplicateMSInput()
			cache := NewTemplateCache()
			if _, err := cachedPlan(cache, base); err != nil {
				t.Fatalf("base plan: %v", err)
			}
			mut := tc.mutate(duplicateMSInput())
			want, wantErr := naivePlan(mut)
			got, gotErr := cachedPlan(cache, mut)
			if wantErr != nil {
				if gotErr == nil || wantErr.Error() != gotErr.Error() {
					t.Fatalf("err %v, want %v", gotErr, wantErr)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("cached: %v", gotErr)
			}
			requireAllocBitIdentical(t, want, got, tc.name)
			st := cache.Stats()
			if st.Invalidations != 1 || st.Compiles != 2 {
				t.Fatalf("stats = %+v, want 1 invalidation / 2 compiles", st)
			}
			// The recompiled template is now current: planning again hits.
			if _, err := cachedPlan(cache, mut); err != nil {
				t.Fatalf("replan: %v", err)
			}
			if st := cache.Stats(); st.Hits != 1 {
				t.Fatalf("replan stats = %+v, want 1 hit", st)
			}
		})
	}
}

// TestTemplateCacheNilAndValidationErrors: Plan compiles per call and matches
// the oracle, a nil cache reads empty, and invalid inputs surface the oracle's
// error text on every path — including inputs with several problems, where
// the static bindings (graph, SLA, models, shares) are reported before any
// workload.
func TestTemplateCacheNilAndValidationErrors(t *testing.T) {
	var nilCache *TemplateCache
	in := duplicateMSInput()
	want, err := naivePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	requireAllocBitIdentical(t, want, got, "Plan")
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if nilCache.Len() != 0 {
		t.Fatalf("nil cache len = %d", nilCache.Len())
	}

	for _, tc := range []struct {
		name, wantErr string
		mutate        func(in *Input)
	}{
		{"nil graph", "scaling: nil graph", func(in *Input) { in.Graph = nil }},
		{"missing model", "scaling: no model for microservice shared", func(in *Input) {
			delete(in.Models, "shared")
		}},
		{"missing workload and model", "scaling: no model for microservice shared", func(in *Input) {
			delete(in.Workloads, "front")
			delete(in.Models, "shared")
		}},
		{"missing workload and share", "scaling: no resource share for microservice shared", func(in *Input) {
			delete(in.Workloads, "front")
			delete(in.Shares, "shared")
		}},
	} {
		bad := duplicateMSInput()
		tc.mutate(&bad)
		_, wantErr := naivePlan(bad)
		if wantErr == nil || wantErr.Error() != tc.wantErr {
			t.Fatalf("%s: naive err %v, want %q", tc.name, wantErr, tc.wantErr)
		}
		_, cachedErr := cachedPlan(NewTemplateCache(), bad)
		_, planErr := Plan(bad)
		_, explainErr := Explain(bad)
		for path, err := range map[string]error{"cached": cachedErr, "Plan": planErr, "Explain": explainErr} {
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("%s: %s err %v, want %q", tc.name, path, err, tc.wantErr)
			}
		}
	}
}
