package graph

import (
	"testing"
)

func variantA() *Graph {
	g := New("svc", "A")
	g.AddStage(g.Root, "B", "C")
	g.AddStage(g.Root, "D")
	return g
}

func variantA2() *Graph { // one extra call, very similar to A
	g := variantA()
	g.AddStage(g.NodesFor("D")[0], "E")
	return g
}

func variantB() *Graph { // disjoint call set under the same root
	g := New("svc", "A")
	g.AddStage(g.Root, "X")
	g.AddStage(g.NodesFor("X")[0], "Y", "Z")
	return g
}

func TestSimilarity(t *testing.T) {
	if s := Similarity(variantA(), variantA()); s != 1 {
		t.Fatalf("self similarity = %v", s)
	}
	if s := Similarity(variantA(), variantB()); s != 0 {
		t.Fatalf("disjoint similarity = %v", s)
	}
	s := Similarity(variantA(), variantA2())
	if s <= 0.5 || s >= 1 {
		t.Fatalf("near-variant similarity = %v", s)
	}
	// Single-node graphs.
	if s := Similarity(New("s", "A"), New("s", "A")); s != 1 {
		t.Fatalf("single-node same root = %v", s)
	}
	if s := Similarity(New("s", "A"), New("s", "B")); s != 0 {
		t.Fatalf("single-node diff root = %v", s)
	}
}

func TestClusterSeparatesDissimilar(t *testing.T) {
	variants := []*Graph{variantA(), variantA2(), variantB(), variantA()}
	classes, err := Cluster("svc", variants, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(classes))
	}
	// Largest class first: the A-family (3 members).
	if classes[0].Len() < classes[1].Len() && len(classes[0].Microservices()) < len(classes[1].Microservices()) {
		t.Fatalf("class ordering wrong: %d vs %d nodes", classes[0].Len(), classes[1].Len())
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Class names are disambiguated.
	if classes[0].Service == classes[1].Service {
		t.Fatalf("duplicate class service names: %s", classes[0].Service)
	}
}

func TestClusterSingleClassKeepsName(t *testing.T) {
	classes, err := Cluster("svc", []*Graph{variantA(), variantA2()}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0].Service != "svc" {
		t.Fatalf("classes = %v", classes)
	}
}

func TestClusterThresholdExtremes(t *testing.T) {
	variants := []*Graph{variantA(), variantA2(), variantB()}
	// Threshold 0: everything joins the first class.
	one, err := Cluster("svc", variants, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("threshold 0 classes = %d", len(one))
	}
	// Threshold 1: only exact duplicates merge.
	exact, err := Cluster("svc", []*Graph{variantA(), variantA(), variantB()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 2 {
		t.Fatalf("threshold 1 classes = %d", len(exact))
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster("svc", nil, 0.5); err == nil {
		t.Fatal("empty variants accepted")
	}
	if _, err := Cluster("svc", []*Graph{variantA()}, 2); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

// TestOverprovisionRatio: the §7 over-provisioning the clustering removes.
// Two dissimilar families each get a class smaller than the single complete
// graph that unions both; one family gets one class no smaller than it.
func TestOverprovisionRatio(t *testing.T) {
	variants := []*Graph{variantA(), variantA(), variantB(), variantB()}
	classes, err := Cluster("svc", variants, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := Merge("svc", variants...)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("%d classes, want 2", len(classes))
	}
	for _, c := range classes {
		if ratio := float64(complete.Len()) / float64(c.Len()); ratio <= 1.2 {
			t.Fatalf("complete graph / class %s = %v, want substantially > 1", c.Service, ratio)
		}
	}
	same, err := Cluster("svc", []*Graph{variantA(), variantA()}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 1 || same[0].Len() != variantA().Len() {
		t.Fatalf("single family clustered into %d classes", len(same))
	}
}
