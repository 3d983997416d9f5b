package trace

import (
	"fmt"
	"math"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// call builds a CallRecord with the given node identifiers and timestamps.
func call(traceID int64, svc, ms string, nodeID, parentID int, cs, sr, ss, cr float64) sim.CallRecord {
	return sim.CallRecord{
		TraceID: traceID, Service: svc, Microservice: ms,
		NodeID: nodeID, ParentNodeID: parentID,
		ClientSend: cs, ServerRecv: sr, ServerSend: ss, ClientRecv: cr,
	}
}

// fig1Trace builds the paper's Fig. 1 call pattern: T calls Url and U in
// parallel, then C sequentially. Node T's own work is 2ms; latencies are
// chosen so Eq. 1 has a known answer.
func fig1Trace(id int64) []sim.CallRecord {
	return []sim.CallRecord{
		// Root call into T: server busy 0-30.
		call(id, "svc", "T", 0, -1, 0, 0, 30, 30),
		// T -> Url (parallel with U): client span 2-12, server 2-12.
		call(id, "svc", "Url", 1, 0, 2, 2, 12, 12),
		// T -> U: client span 2-8 (overlaps Url's span -> parallel).
		call(id, "svc", "U", 2, 0, 2, 2, 8, 8),
		// T -> C after the parallel stage: client span 12-30 (no overlap).
		call(id, "svc", "C", 3, 0, 12, 12, 30, 30),
	}
}

func fillCoordinator(c *Coordinator, n int) {
	for i := 0; i < n; i++ {
		for _, r := range fig1Trace(int64(i + 1)) {
			c.ObserveCall(r)
		}
	}
}

func TestCoordinatorAssemblesTraces(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 3)
	if numTraces(c) != 3 {
		t.Fatalf("traces = %d", numTraces(c))
	}
	ts := c.Traces("svc")
	if len(ts) != 3 || len(ts[0].Calls) != 4 {
		t.Fatalf("trace shape wrong: %d traces", len(ts))
	}
	if got := c.Traces("other"); got != nil {
		t.Fatal("filter by unknown service should be empty")
	}
}

func TestGroupStagesOverlapRule(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 1)
	tr := c.Traces("svc")[0]
	stages := groupStages(childrenOf(tr, 0))
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2 (parallel pair then sequential C)", len(stages))
	}
	if len(stages[0]) != 2 {
		t.Fatalf("stage 0 = %d calls, want Url+U", len(stages[0]))
	}
	if len(stages[1]) != 1 || stages[1][0].Microservice != "C" {
		t.Fatalf("stage 1 wrong: %+v", stages[1])
	}
}

// TestGroupStagesBoundaries pins the parallel/sequential tie-breaks of the
// half-open overlap rule for zero-width and exactly-touching client spans.
func TestGroupStagesBoundaries(t *testing.T) {
	// child builds a child call of node 0 with client span [cs, cr).
	child := func(ms string, nodeID int, cs, cr float64) sim.CallRecord {
		return call(1, "svc", ms, nodeID, 0, cs, cs, cr, cr)
	}
	cases := []struct {
		name     string
		children []sim.CallRecord
		want     [][]string // stages as microservice names, in order
	}{
		{
			name: "exactly touching is sequential",
			children: []sim.CallRecord{
				child("A", 1, 0, 10),
				child("B", 2, 10, 20),
			},
			want: [][]string{{"A"}, {"B"}},
		},
		{
			name: "strict overlap by epsilon is parallel",
			children: []sim.CallRecord{
				child("A", 1, 0, 10),
				child("B", 2, 9.999, 20),
			},
			want: [][]string{{"A", "B"}},
		},
		{
			name: "zero-width span strictly inside a stage is parallel",
			children: []sim.CallRecord{
				child("A", 1, 0, 10),
				child("Z", 2, 5, 5),
			},
			want: [][]string{{"A", "Z"}},
		},
		{
			name: "zero-width span exactly at stage end starts a new stage",
			children: []sim.CallRecord{
				child("A", 1, 0, 10),
				child("Z", 2, 10, 10),
				child("B", 3, 10, 20),
			},
			// Z opens a stage with stageEnd == 10, so B (send 10) is
			// sequential after it rather than parallel with it.
			want: [][]string{{"A"}, {"Z"}, {"B"}},
		},
		{
			name: "zero-width and wider sibling at the same instant",
			children: []sim.CallRecord{
				// Arrival order adversarial: wider span first. The pinned
				// child order (ClientSend, ClientRecv, NodeID) puts Z first,
				// so the grouping is sequential regardless of input order.
				child("A", 1, 0, 10),
				child("Z", 2, 0, 0),
			},
			want: [][]string{{"Z"}, {"A"}},
		},
		{
			name: "equal spans tie-break on node ID",
			children: []sim.CallRecord{
				child("B", 2, 0, 10),
				child("A", 1, 0, 10),
			},
			want: [][]string{{"A", "B"}},
		},
		{
			name: "back-to-back zero-width spans at one instant are sequential",
			children: []sim.CallRecord{
				child("Z2", 2, 5, 5),
				child("Z1", 1, 5, 5),
			},
			want: [][]string{{"Z1"}, {"Z2"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := Trace{ID: 1, Service: "svc", Calls: tc.children}
			stages := groupStages(childrenOf(tr, 0))
			got := make([][]string, len(stages))
			for i, st := range stages {
				for _, r := range st {
					got[i] = append(got[i], r.Microservice)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("stages = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestChildrenOfDeterministicOrder feeds the same children in every
// permutation and checks the grouping never changes — the regression for the
// non-stable single-key sort that let equal-send siblings flip order.
func TestChildrenOfDeterministicOrder(t *testing.T) {
	base := []sim.CallRecord{
		call(1, "svc", "N", 1, 0, 2, 2, 9, 9),
		call(1, "svc", "Z", 2, 0, 2, 2, 2, 2), // zero-width, same send as N
		call(1, "svc", "C", 3, 0, 9, 9, 12, 12),
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want string
	for i, p := range perms {
		calls := make([]sim.CallRecord, len(base))
		for j, idx := range p {
			calls[j] = base[idx]
		}
		stages := groupStages(childrenOf(Trace{ID: 1, Calls: calls}, 0))
		got := fmt.Sprint(func() (names [][]string) {
			for _, st := range stages {
				var s []string
				for _, r := range st {
					s = append(s, r.Microservice)
				}
				names = append(names, s)
			}
			return
		}())
		if i == 0 {
			want = got
			// Zero-width Z sorts before N (same send, shorter), opens its
			// own stage; N follows sequentially; C touches N's end exactly.
			if want != "[[Z] [N] [C]]" {
				t.Fatalf("pinned grouping = %s, want [[Z] [N] [C]]", want)
			}
			continue
		}
		if got != want {
			t.Fatalf("permutation %v grouped as %s, first permutation as %s", p, got, want)
		}
	}
}

func TestExtractGraphFig1(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 5)
	g, err := c.ExtractGraph("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Root.Microservice != "T" {
		t.Fatalf("root = %s", g.Root.Microservice)
	}
	if len(g.Root.Stages) != 2 {
		t.Fatalf("root stages = %d", len(g.Root.Stages))
	}
	if len(g.Root.Stages[0]) != 2 {
		t.Fatalf("parallel stage size = %d", len(g.Root.Stages[0]))
	}
	if g.Root.Stages[1][0].Microservice != "C" {
		t.Fatalf("sequential stage = %s", g.Root.Stages[1][0].Microservice)
	}
}

func TestExtractGraphNoTraces(t *testing.T) {
	c := NewCoordinator(1)
	if _, err := c.ExtractGraph("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMicroserviceLatenciesEq1(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 1)
	samples := c.MicroserviceLatencies("svc")
	byMS := map[string]float64{}
	for _, s := range samples {
		byMS[s.Microservice] = s.LatencyMs
	}
	// T: own response 30, minus parallel stage max(Url 10, U 6) = 10, minus
	// C's response 18 -> 30 - 10 - 18 = 2.
	if math.Abs(byMS["T"]-2) > 1e-9 {
		t.Fatalf("T latency = %v, want 2", byMS["T"])
	}
	// Leaves keep their full server time.
	if math.Abs(byMS["Url"]-10) > 1e-9 || math.Abs(byMS["U"]-6) > 1e-9 || math.Abs(byMS["C"]-18) > 1e-9 {
		t.Fatalf("leaf latencies = %+v", byMS)
	}
}

func TestEndToEnd(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 4)
	lats := endToEnd(c, "svc")
	if len(lats) != 4 {
		t.Fatalf("e2e count = %d", len(lats))
	}
	for _, l := range lats {
		if math.Abs(l-30) > 1e-9 {
			t.Fatalf("e2e = %v, want 30", l)
		}
	}
}

func TestWorkloadEstimate(t *testing.T) {
	c := NewCoordinator(0.1)
	fillCoordinator(c, 10) // 10 sampled traces over, say, 1 minute
	w, err := c.WorkloadEstimate("svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 sampled calls per microservice / 0.1 sample rate = 100 req/min.
	for _, ms := range []string{"T", "Url", "U", "C"} {
		if math.Abs(w[ms]-100) > 1e-9 {
			t.Fatalf("workload[%s] = %v, want 100", ms, w[ms])
		}
	}
	if _, err := c.WorkloadEstimate("svc", 0); err == nil {
		t.Fatal("zero window should error")
	}
}

func TestNewCoordinatorPanics(t *testing.T) {
	for _, rate := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v should panic", rate)
				}
			}()
			NewCoordinator(rate)
		}()
	}
}

// TestEndToEndPipelineAgainstSimulator runs the full honest pipeline: the
// simulator emits spans, the coordinator reconstructs the graph and latency
// statistics, and both must agree with what the simulator measured directly.
func TestEndToEndPipelineAgainstSimulator(t *testing.T) {
	g := graph.New("social", "nginx")
	par := g.AddStage(g.Root, "text", "media")
	g.AddStage(g.Root, "storage")
	g.AddStage(par[0], "cache")

	cl := cluster.New(4, cluster.PaperHost)
	for i, ms := range []string{"nginx", "text", "media", "storage", "cache"} {
		for k := 0; k < 2; k++ {
			if _, err := cl.Place(cluster.PaperContainer(ms), (i+k)%4); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord := NewCoordinator(0.1)
	cfg := sim.Config{
		Seed:    11,
		Cluster: cl,
		Profiles: map[string]sim.ServiceProfile{
			"nginx": {BaseMs: 0.5}, "text": {BaseMs: 3, CV: 0.3}, "media": {BaseMs: 4, CV: 0.3},
			"storage": {BaseMs: 2, CV: 0.3}, "cache": {BaseMs: 1, CV: 0.3},
		},
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"social": workload.Static{Rate: 6000}},
		DurationMin:    2,
		WarmupMin:      0,
		SampleRate:     0.1,
		NetworkDelayMs: 0.05,
		Observer:       coord,
	}
	rt, err := sim.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run()

	// Graph reconstruction matches the real topology.
	got, err := coord.ExtractGraph("social")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != g.Len() {
		t.Fatalf("reconstructed %d nodes, want %d\n%s", got.Len(), g.Len(), got.DOT())
	}
	if len(got.Root.Stages) != 2 || len(got.Root.Stages[0]) != 2 {
		t.Fatalf("reconstructed root stages wrong:\n%s", got.DOT())
	}

	// End-to-end latencies from spans track the simulator's own measurement.
	e2e := endToEnd(coord, "social")
	if len(e2e) < 500 {
		t.Fatalf("too few sampled requests: %d", len(e2e))
	}
	simP95 := res.PerService["social"].P95()
	var sorted []float64
	sorted = append(sorted, e2e...)
	traceP95 := quantile(sorted, 0.95)
	if math.Abs(traceP95-simP95)/simP95 > 0.25 {
		t.Fatalf("trace-derived P95 %v vs simulator %v", traceP95, simP95)
	}

	// Workload estimate: ~6000 req/min at the root (sampled at 10%).
	w, err := coord.WorkloadEstimate("social", 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w["nginx"]-6000)/6000 > 0.15 {
		t.Fatalf("workload estimate = %v, want ~6000", w["nginx"])
	}
}

func quantile(xs []float64, q float64) float64 {
	// local helper to avoid importing stats in tests
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	pos := q * float64(len(cp)-1)
	lo := int(pos)
	if lo >= len(cp)-1 {
		return cp[len(cp)-1]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// TestExtractGraphRandomTopologies is the honest-pipeline property test:
// whatever random call tree the simulator executes, the coordinator must
// reconstruct it exactly from span overlap.
func TestExtractGraphRandomTopologies(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		coord := NewCoordinator(1.0)
		g, cfg := randomTopology(t, seed, coord)
		rt, err := sim.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		got, err := coord.ExtractGraph("svc")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != g.Len() {
			t.Fatalf("seed %d: reconstructed %d nodes, want %d\nwant:\n%s\ngot:\n%s",
				seed, got.Len(), g.Len(), g.DOT(), got.DOT())
		}
		// Structural equality: compare DOT of both (IDs assigned in the same
		// DFS order because Merge preserves first-seen stage order).
		if got.DOT() != g.Clone().DOT() {
			// Allow stage-internal ordering differences: compare stage
			// multisets per node instead.
			if !sameShape(g.Root, got.Root) {
				t.Fatalf("seed %d: structure mismatch\nwant:\n%s\ngot:\n%s", seed, g.DOT(), got.DOT())
			}
		}
	}
}

// randomTopology builds the seed's random call tree of 3-12 nodes and a
// one-minute, fully sampled simulation of it reporting to obs.
func randomTopology(t *testing.T, seed uint64, obs sim.SpanObserver) (*graph.Graph, sim.Config) {
	t.Helper()
	r := statsRNG(seed)
	n := 3 + r.Intn(10)
	g := graph.New("svc", "n0")
	open := []*graph.Node{g.Root}
	profiles := map[string]sim.ServiceProfile{"n0": {BaseMs: 1.5}}
	for g.Len() < n {
		p := open[r.Intn(len(open))]
		width := 1 + r.Intn(3)
		if rem := n - g.Len(); width > rem {
			width = rem
		}
		names := make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", g.Len()+i)
			profiles[names[i]] = sim.ServiceProfile{BaseMs: 0.5 + 3*r.Float64(), CV: 0.3}
		}
		open = append(open, g.AddStage(p, names...)...)
	}

	cl := cluster.New(2, cluster.PaperHost)
	for ms := range profiles {
		if _, err := cl.Place(cluster.PaperContainer(ms), 0); err != nil {
			t.Fatal(err)
		}
	}
	return g, sim.Config{
		Seed:           seed,
		Cluster:        cl,
		Profiles:       profiles,
		Graphs:         []*graph.Graph{g},
		Patterns:       map[string]workload.Pattern{"svc": workload.Static{Rate: 300}},
		DurationMin:    1,
		SampleRate:     1.0,
		NetworkDelayMs: 0.05,
		Observer:       obs,
	}
}

// sameShape compares two call trees up to within-stage ordering.
func sameShape(a, b *graph.Node) bool {
	if a.Microservice != b.Microservice || len(a.Stages) != len(b.Stages) {
		return false
	}
	for k := range a.Stages {
		if len(a.Stages[k]) != len(b.Stages[k]) {
			return false
		}
		used := make([]bool, len(b.Stages[k]))
		for _, ca := range a.Stages[k] {
			found := false
			for j, cb := range b.Stages[k] {
				if !used[j] && sameShape(ca, cb) {
					used[j] = true
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// statsRNG adapts the stats RNG without importing it at top level twice.
func statsRNG(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

// numTraces returns the number of distinct traces collected.
func numTraces(c *Coordinator) int { return len(c.Traces("")) }

// endToEnd returns the end-to-end latencies (root client span durations) of
// all sampled requests of a service: the span-derived measurement the
// pipeline test holds against the simulator's own.
func endToEnd(c *Coordinator, service string) []float64 {
	var out []float64
	for _, t := range c.Traces(service) {
		if root, err := rootOf(t); err == nil {
			out = append(out, root.ClientRecv-root.ClientSend)
		}
	}
	return out
}
