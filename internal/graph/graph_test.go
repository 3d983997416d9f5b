package graph

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"erms/internal/stats"
)

// fig7 builds the paper's Fig. 7 graph: T calls Url and U in parallel, then
// calls C sequentially afterwards.
func fig7() (*Graph, map[string]*Node) {
	g := New("svc", "T")
	par := g.AddStage(g.Root, "Url", "U")
	seq := g.AddStage(g.Root, "C")
	return g, map[string]*Node{"T": g.Root, "Url": par[0], "U": par[1], "C": seq[0]}
}

func TestBuildAndValidate(t *testing.T) {
	g, nodes := fig7()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("len = %d", g.Len())
	}
	if nodes["Url"].Parent != g.Root || nodes["C"].Parent != g.Root {
		t.Fatal("parents wrong")
	}
	if len(g.Root.Stages) != 2 {
		t.Fatalf("stages = %d", len(g.Root.Stages))
	}
	if !nodes["C"].IsLeaf() || g.Root.IsLeaf() {
		t.Fatal("leaf detection wrong")
	}
}

func TestAddSequential(t *testing.T) {
	g := New("svc", "A")
	ns := g.AddSequential(g.Root, "B", "C", "D")
	if len(ns) != 3 || len(g.Root.Stages) != 3 {
		t.Fatalf("sequential add created %d nodes, %d stages", len(ns), len(g.Root.Stages))
	}
	for i, st := range g.Root.Stages {
		if len(st) != 1 || st[0] != ns[i] {
			t.Fatal("stage contents wrong")
		}
	}
}

func TestAddStagePanics(t *testing.T) {
	g := New("svc", "A")
	other := New("other", "X")
	for _, fn := range []func(){
		func() { g.AddStage(other.Root, "B") },
		func() { g.AddStage(g.Root) },
		func() { g.AddStage(nil, "B") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMicroservicesAndNodesFor(t *testing.T) {
	g := New("svc", "A")
	g.AddStage(g.Root, "B", "C")
	bs := g.NodesFor("B")
	g.AddStage(bs[0], "C") // C appears twice (diamond-ish)
	ms := g.Microservices()
	if len(ms) != 3 || ms[0] != "A" || ms[1] != "B" || ms[2] != "C" {
		t.Fatalf("microservices = %v", ms)
	}
	if len(g.NodesFor("C")) != 2 {
		t.Fatalf("NodesFor(C) = %d", len(g.NodesFor("C")))
	}
	if len(g.NodesFor("missing")) != 0 {
		t.Fatal("NodesFor(missing) should be empty")
	}
}

func TestPreOrderPostOrder(t *testing.T) {
	g, _ := fig7()
	pre := g.PreOrder()
	if pre[0].Microservice != "T" || len(pre) != 4 {
		t.Fatalf("preorder = %v", pre)
	}
	post := g.PostOrder()
	if post[len(post)-1].Microservice != "T" {
		t.Fatalf("postorder last = %v", post[len(post)-1])
	}
	// Children precede parents in post-order.
	pos := map[int]int{}
	for i, n := range post {
		pos[n.ID] = i
	}
	for _, n := range g.PreOrder() {
		if n.Parent != nil && pos[n.ID] >= pos[n.Parent.ID] {
			t.Fatalf("node %s after its parent in post-order", n)
		}
	}
}

func TestTwoTierInvocations(t *testing.T) {
	g := New("svc", "T")
	st := g.AddStage(g.Root, "Url", "U")
	g.AddStage(g.Root, "C")
	g.AddStage(st[0], "C") // Url calls C
	tt := g.TwoTierInvocations()
	if len(tt) != 2 {
		t.Fatalf("two-tier count = %d", len(tt))
	}
	// Deepest first: Url's invocation before T's.
	if tt[0].Microservice != "Url" || tt[1].Microservice != "T" {
		t.Fatalf("two-tier order: %v then %v", tt[0], tt[1])
	}
}

func TestEndToEndSequentialAndParallel(t *testing.T) {
	g, nodes := fig7()
	lat := map[string]float64{"T": 1, "Url": 5, "U": 3, "C": 2}
	f := func(n *Node) float64 { return lat[n.Microservice] }
	// T(1) + max(Url 5, U 3) + C(2) = 8.
	if got := g.EndToEnd(f); got != 8 {
		t.Fatalf("end-to-end = %v", got)
	}
	// Critical nodes: T, Url, C (U is not critical).
	crit := g.CriticalNodes(f)
	names := map[string]bool{}
	for _, n := range crit {
		names[n.Microservice] = true
	}
	if !names["T"] || !names["Url"] || !names["C"] || names["U"] {
		t.Fatalf("critical = %v", names)
	}
	_ = nodes
}

func TestEndToEndDeepTree(t *testing.T) {
	g := New("svc", "A")
	b := g.AddStage(g.Root, "B")[0]
	g.AddStage(b, "C", "D")
	lat := map[string]float64{"A": 1, "B": 2, "C": 10, "D": 4}
	got := g.EndToEnd(func(n *Node) float64 { return lat[n.Microservice] })
	if got != 13 { // A + B + max(C, D)
		t.Fatalf("end-to-end = %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, nodes := fig7()
	nodes["C"].Microservice = ""
	if err := g.Validate(); err == nil {
		t.Fatal("expected validation error for empty name")
	}
	g2, n2 := fig7()
	n2["C"].Parent = n2["Url"] // break parent link
	if err := g2.Validate(); err == nil {
		t.Fatal("expected validation error for bad parent")
	}
	g3, _ := fig7()
	g3.Root.Stages = append(g3.Root.Stages, []*Node{}) // empty stage
	if err := g3.Validate(); err == nil {
		t.Fatal("expected validation error for empty stage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, _ := fig7()
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != g.Len() || c.Service != g.Service {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	c.AddStage(c.Root, "Z")
	if g.Len() == c.Len() {
		t.Fatal("clone shares node storage with original")
	}
	for i, n := range g.PreOrder() {
		if n == c.PreOrder()[i] {
			t.Fatal("clone shares node pointers")
		}
	}
}

func TestDOT(t *testing.T) {
	g, _ := fig7()
	dot := g.DOT()
	for _, want := range []string{"digraph", "T", "Url", "style=bold", "style=solid"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestMergeVariants(t *testing.T) {
	// Variant 1: A -> B ; Variant 2: A -> B, C (parallel) then D.
	v1 := New("svc", "A")
	v1.AddStage(v1.Root, "B")
	v2 := New("svc", "A")
	v2.AddStage(v2.Root, "B", "C")
	v2.AddStage(v2.Root, "D")
	m, err := Merge("svc", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ms := m.Microservices()
	if len(ms) != 4 {
		t.Fatalf("merged microservices = %v", ms)
	}
	if len(m.Root.Stages) != 2 {
		t.Fatalf("merged stages = %d", len(m.Root.Stages))
	}
	if len(m.Root.Stages[0]) != 2 {
		t.Fatalf("merged stage 0 = %d calls", len(m.Root.Stages[0]))
	}
}

func TestMergeSubtrees(t *testing.T) {
	// Subtrees under the same child name are merged recursively.
	v1 := New("svc", "A")
	b1 := v1.AddStage(v1.Root, "B")[0]
	v1.AddStage(b1, "X")
	v2 := New("svc", "A")
	b2 := v2.AddStage(v2.Root, "B")[0]
	v2.AddStage(b2, "Y")
	m, err := Merge("svc", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	bs := m.NodesFor("B")
	if len(bs) != 1 {
		t.Fatalf("B duplicated: %d", len(bs))
	}
	if kids := bs[0].Stages; len(kids) != 1 || len(kids[0]) != 2 {
		t.Fatalf("B children = %v", kids)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge("svc"); err == nil {
		t.Fatal("expected error for no variants")
	}
	a := New("svc", "A")
	b := New("svc", "B")
	if _, err := Merge("svc", a, b); err == nil {
		t.Fatal("expected error for root mismatch")
	}
}

// TestCallCountsMatchesNodesForScan: the one-pass multiplicity helper agrees
// with the per-name scan it replaced, on trees whose names repeat.
func TestCallCountsMatchesNodesForScan(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		g := randomTree(r, 2+r.Intn(60))
		mss, counts := g.CallCounts()
		if len(mss) != len(counts) || !sort.StringsAreSorted(mss) {
			t.Fatalf("seed %d: CallCounts = %v, %v", seed, mss, counts)
		}
		total := 0
		for i, ms := range mss {
			if i > 0 && mss[i-1] == ms {
				t.Fatalf("seed %d: %s listed twice", seed, ms)
			}
			if want := len(g.NodesFor(ms)); counts[i] != want || want == 0 {
				t.Fatalf("seed %d: count[%s] = %d, NodesFor scan says %d", seed, ms, counts[i], want)
			}
			total += counts[i]
		}
		if total != g.Len() {
			t.Fatalf("seed %d: counts sum to %d, graph has %d nodes", seed, total, g.Len())
		}
	}
}

// randomTree builds a random call tree with n nodes for property tests.
func randomTree(r *stats.RNG, n int) *Graph {
	g := New("svc", "m0")
	open := []*Node{g.Root}
	for g.Len() < n {
		p := open[r.Intn(len(open))]
		width := 1 + r.Intn(3)
		if g.Len()+width > n {
			width = n - g.Len()
		}
		names := make([]string, width)
		for i := range names {
			names[i] = "m" + string(rune('0'+(g.Len()+i)%10)) + "x"
		}
		st := g.AddStage(p, names...)
		open = append(open, st...)
	}
	return g
}

func TestRandomTreesValidate(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 1)
		g := randomTree(r, 2+r.Intn(60))
		if g.Validate() != nil {
			return false
		}
		// Node count bookkeeping.
		if len(g.PreOrder()) != g.Len() || len(g.PostOrder()) != g.Len() {
			return false
		}
		// Clone is structurally identical.
		c := g.Clone()
		return c.Validate() == nil && c.Len() == g.Len() && c.DOT() == g.DOT()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndUpperBoundProperty(t *testing.T) {
	// End-to-end latency is at most the sum of all node latencies (parallel
	// overlap can only shorten) and at least the max root-to-leaf chain.
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 101)
		g := randomTree(r, 2+r.Intn(40))
		lat := make(map[int]float64)
		var sum float64
		for _, n := range g.PreOrder() {
			lat[n.ID] = r.Float64() * 10
			sum += lat[n.ID]
		}
		f := func(n *Node) float64 { return lat[n.ID] }
		e2e := g.EndToEnd(f)
		if e2e > sum+1e-9 {
			return false
		}
		// Every critical node contributes: raising its latency raises e2e.
		crit := g.CriticalNodes(f)
		if len(crit) == 0 {
			return false
		}
		n := crit[r.Intn(len(crit))]
		lat[n.ID] += 5
		return g.EndToEnd(f) >= e2e+5-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// canonGraph renders a graph as an ID-free canonical signature: microservice
// names, stage grouping and in-stage order. Two graphs
// with equal signatures are identical up to node-ID assignment (which Merge
// legitimately renumbers).
func canonGraph(n *Node) string {
	var sb strings.Builder
	sb.WriteString(n.Microservice)
	for _, st := range n.Stages {
		sb.WriteString("(")
		for i, c := range st {
			if i > 0 {
				sb.WriteString("|")
			}
			sb.WriteString(canonGraph(c))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// requireSameGraph fails unless two graphs have identical canonical
// signatures (structure, names and order).
func requireSameGraph(t *testing.T, want, got *Graph, ctx string) {
	t.Helper()
	if got.Service != want.Service || got.Len() != want.Len() {
		t.Fatalf("%s: service/size %s/%d, want %s/%d", ctx, got.Service, got.Len(), want.Service, want.Len())
	}
	if w, g := canonGraph(want.Root), canonGraph(got.Root); w != g {
		t.Fatalf("%s: structure diverged:\n--- want ---\n%s\n--- got ---\n%s", ctx, w, g)
	}
}

// TestMergeIdempotent pins the template-cache precondition that makes graph
// fingerprints stable: merging a graph with itself (or alone) is the
// identity.
func TestMergeIdempotent(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 7)
		g := randomTree(r, 2+r.Intn(40))
		one, err := Merge("svc", g)
		if err != nil {
			t.Fatalf("seed %d: Merge(g): %v", seed, err)
		}
		requireSameGraph(t, g, one, "Merge(g)")
		twice, err := Merge("svc", g, g)
		if err != nil {
			t.Fatalf("seed %d: Merge(g, g): %v", seed, err)
		}
		requireSameGraph(t, g, twice, "Merge(g, g)")
		// Merging an already-merged graph with a variant changes nothing
		// more: Merge(Merge(a, b), b) == Merge(a, b).
		h := randomTree(stats.NewRNG(uint64(seed)+977), 2+r.Intn(40))
		hRe := h.Clone()
		hRe.Root.Microservice = g.Root.Microservice
		m1, err := Merge("svc", g, hRe)
		if err != nil {
			t.Fatalf("seed %d: Merge(g, h): %v", seed, err)
		}
		m2, err := Merge("svc", m1, hRe)
		if err != nil {
			t.Fatalf("seed %d: Merge(m1, h): %v", seed, err)
		}
		requireSameGraph(t, m1, m2, "Merge(m1, h)")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
