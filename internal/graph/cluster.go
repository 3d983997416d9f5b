package graph

import (
	"errors"
	"sort"
)

// Similarity returns the Jaccard similarity of two graphs' call edges
// (parent→child microservice pairs): 1 for identical call sets, 0 for
// disjoint ones. It is the distance used to cluster dynamic dependency-graph
// variants (§7, §9).
func Similarity(a, b *Graph) float64 {
	ea, eb := edgeSet(a), edgeSet(b)
	if len(ea) == 0 && len(eb) == 0 {
		if a.Root.Microservice == b.Root.Microservice {
			return 1
		}
		return 0
	}
	inter := 0
	for e := range ea {
		if eb[e] {
			inter++
		}
	}
	union := len(ea) + len(eb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

type edge struct{ from, to string }

func edgeSet(g *Graph) map[edge]bool {
	out := make(map[edge]bool)
	for _, n := range g.PreOrder() {
		for _, st := range n.Stages {
			for _, c := range st {
				out[edge{n.Microservice, c.Microservice}] = true
			}
		}
	}
	return out
}

// Cluster groups dynamic dependency-graph variants of one service into
// classes of mutually similar graphs (greedy leader clustering at the given
// similarity threshold) and merges each class into its complete graph.
//
// This implements the improvement sketched in the paper's conclusion (§9):
// instead of over-provisioning one complete graph that unions every variant,
// Erms can scale each variant class separately. Variants join the first
// class whose leader they resemble at least `threshold`; each class's
// complete graph is the Merge of its members.
func Cluster(service string, variants []*Graph, threshold float64) ([]*Graph, error) {
	if len(variants) == 0 {
		return nil, errors.New("graph: Cluster needs at least one variant")
	}
	if threshold < 0 || threshold > 1 {
		return nil, errors.New("graph: Cluster threshold must be in [0, 1]")
	}
	type class struct {
		leader  *Graph
		members []*Graph
	}
	var classes []*class
	for _, v := range variants {
		if err := v.Validate(); err != nil {
			return nil, err
		}
		placed := false
		for _, c := range classes {
			if v.Root.Microservice == c.leader.Root.Microservice && Similarity(v, c.leader) >= threshold {
				c.members = append(c.members, v)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, &class{leader: v, members: []*Graph{v}})
		}
	}
	// Merge largest classes first so class indices are stable and the most
	// common variant is class 0.
	sort.SliceStable(classes, func(i, j int) bool { return len(classes[i].members) > len(classes[j].members) })
	out := make([]*Graph, 0, len(classes))
	for i, c := range classes {
		name := service
		if len(classes) > 1 {
			name = service + "#" + itoaSmall(i)
		}
		merged, err := Merge(name, c.members...)
		if err != nil {
			return nil, err
		}
		out = append(out, merged)
	}
	return out, nil
}

func itoaSmall(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [6]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
