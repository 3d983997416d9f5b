// Package graph models microservice dependency graphs: which microservice
// calls which, and whether sibling calls run sequentially or in parallel.
//
// A graph is a call tree rooted at the entering microservice of an online
// service. Each node calls its downstream microservices in a sequence of
// stages; calls within one stage run in parallel, and stages run one after
// another. This representation expresses every composition the paper uses
// (Fig. 1: T calls Url and U in parallel, then calls C) and is the input to
// Erms' graph-merge procedure (Algorithm 1).
//
// The same microservice may appear in several graphs (microservice sharing
// across services, §2.3) and, for diamond-shaped dependencies, at several
// positions within a single graph. Node identity is positional; Node.Microservice
// names the underlying deployable unit.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// EdgePolicy tunes the data-plane resilience behaviour of the call edge
// entering a node (parent → node; for the root, client → root). Zero fields
// inherit the simulation-wide defaults of sim.Resilience; the policy is inert
// when the resilience layer is disabled.
type EdgePolicy struct {
	// TimeoutMs is the per-attempt timeout for this call. 0 inherits the
	// global default; negative disables the per-attempt timeout (the call is
	// bounded only by the propagated request deadline).
	TimeoutMs float64
	// MaxAttempts caps attempts (first call + retries) on this edge.
	// 0 inherits; 1 disables retries; negative is treated as 1.
	MaxAttempts int
}

// Node is one call-tree position occupied by a microservice.
type Node struct {
	// Microservice is the name of the deployed microservice handling the call.
	Microservice string
	// ID is unique within the graph, assigned in creation order.
	ID int
	// Stages holds the downstream calls: Stages[k] is the set of calls issued
	// in parallel during stage k, and stages execute sequentially.
	Stages [][]*Node
	// Parent is nil for the root.
	Parent *Node
	// Policy optionally overrides the resilience defaults for the call edge
	// entering this node. Nil inherits everything.
	Policy *EdgePolicy

	graph *Graph
}

// SetPolicy attaches an edge policy to the call entering the node and
// returns the node (for chaining during graph construction).
func (n *Node) SetPolicy(p EdgePolicy) *Node {
	cp := p
	n.Policy = &cp
	return n
}

// IsLeaf reports whether the node issues no downstream calls.
func (n *Node) IsLeaf() bool { return len(n.Stages) == 0 }

// Children returns all downstream nodes across all stages, in stage order.
func (n *Node) Children() []*Node {
	var out []*Node
	for _, st := range n.Stages {
		out = append(out, st...)
	}
	return out
}

// String returns "microservice#id".
func (n *Node) String() string { return fmt.Sprintf("%s#%d", n.Microservice, n.ID) }

// Graph is a dependency graph for one online service.
type Graph struct {
	// Service names the online service this graph belongs to.
	Service string
	// Root is the entering microservice (e.g. an Nginx frontend).
	Root *Node

	nodes []*Node
}

// New creates a graph for the named service with a root node running the
// given microservice.
func New(service, rootMicroservice string) *Graph {
	g := &Graph{Service: service}
	g.Root = g.newNode(rootMicroservice, nil)
	return g
}

func (g *Graph) newNode(microservice string, parent *Node) *Node {
	n := &Node{Microservice: microservice, ID: len(g.nodes), Parent: parent, graph: g}
	g.nodes = append(g.nodes, n)
	return n
}

// AddStage appends a new stage of parallel calls from parent to the named
// microservices and returns the created nodes in argument order.
func (g *Graph) AddStage(parent *Node, microservices ...string) []*Node {
	if parent == nil || parent.graph != g {
		panic("graph: AddStage parent does not belong to this graph")
	}
	if len(microservices) == 0 {
		panic("graph: AddStage needs at least one microservice")
	}
	stage := make([]*Node, len(microservices))
	for i, m := range microservices {
		stage[i] = g.newNode(m, parent)
	}
	parent.Stages = append(parent.Stages, stage)
	return stage
}

// AddSequential appends each named microservice as its own single-call stage
// under parent (i.e. the calls execute one after another) and returns the
// created nodes.
func (g *Graph) AddSequential(parent *Node, microservices ...string) []*Node {
	out := make([]*Node, 0, len(microservices))
	for _, m := range microservices {
		out = append(out, g.AddStage(parent, m)[0])
	}
	return out
}

// Nodes returns all nodes in creation order (root first).
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Len returns the number of nodes in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Microservices returns the sorted set of distinct microservice names in the
// graph.
func (g *Graph) Microservices() []string {
	mss, _ := g.CallCounts()
	return mss
}

// CallCounts returns the sorted set of distinct microservice names together
// with, per name, the number of graph positions it occupies: one request to
// the service calls microservices[i] counts[i] times. One pass over the
// nodes, so expanding a request rate into per-microservice call rates costs
// O(nodes) rather than a NodesFor scan per name.
func (g *Graph) CallCounts() (microservices []string, counts []int) {
	byName := make(map[string]int, len(g.nodes))
	for _, n := range g.nodes {
		byName[n.Microservice]++
	}
	microservices = make([]string, 0, len(byName))
	for m := range byName {
		microservices = append(microservices, m)
	}
	sort.Strings(microservices)
	counts = make([]int, len(microservices))
	for i, m := range microservices {
		counts[i] = byName[m]
	}
	return microservices, counts
}

// NodesFor returns all nodes occupied by the named microservice.
func (g *Graph) NodesFor(microservice string) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Microservice == microservice {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural invariants: non-empty microservice names, parent
// links consistent with stages, and every node reachable from the root.
func (g *Graph) Validate() error {
	if g.Root == nil {
		return errors.New("graph: nil root")
	}
	reachable := make(map[int]bool, len(g.nodes))
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Microservice == "" {
			return fmt.Errorf("graph: node %d has empty microservice name", n.ID)
		}
		if reachable[n.ID] {
			return fmt.Errorf("graph: node %s visited twice (cycle or shared node)", n)
		}
		reachable[n.ID] = true
		for _, st := range n.Stages {
			if len(st) == 0 {
				return fmt.Errorf("graph: node %s has an empty stage", n)
			}
			for _, c := range st {
				if c.Parent != n {
					return fmt.Errorf("graph: node %s has wrong parent link", c)
				}
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(g.Root); err != nil {
		return err
	}
	if len(reachable) != len(g.nodes) {
		return fmt.Errorf("graph: %d of %d nodes unreachable from root", len(g.nodes)-len(reachable), len(g.nodes))
	}
	return nil
}

// Clone returns a deep copy of the graph. Node IDs are preserved.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Service: g.Service}
	ng.nodes = make([]*Node, len(g.nodes))
	var cp func(n *Node, parent *Node) *Node
	cp = func(n *Node, parent *Node) *Node {
		nn := &Node{Microservice: n.Microservice, ID: n.ID, Parent: parent, graph: ng}
		if n.Policy != nil {
			pol := *n.Policy
			nn.Policy = &pol
		}
		ng.nodes[n.ID] = nn
		for _, st := range n.Stages {
			nst := make([]*Node, len(st))
			for i, c := range st {
				nst[i] = cp(c, nn)
			}
			nn.Stages = append(nn.Stages, nst)
		}
		return nn
	}
	ng.Root = cp(g.Root, nil)
	return ng
}

// PreOrder returns nodes in depth-first pre-order (parents before children,
// stages in order).
func (g *Graph) PreOrder() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, st := range n.Stages {
			for _, c := range st {
				walk(c)
			}
		}
	}
	walk(g.Root)
	return out
}

// PostOrder returns nodes in depth-first post-order (children before
// parents). Algorithm 1 merges two-tier invocations in this order.
func (g *Graph) PostOrder() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, st := range n.Stages {
			for _, c := range st {
				walk(c)
			}
		}
		out = append(out, n)
	}
	walk(g.Root)
	return out
}

// TwoTierInvocation is one internal node together with its direct downstream
// calls — the unit Algorithm 1 merges (§4.2).
type TwoTierInvocation struct {
	Parent *Node
	Stages [][]*Node
}

// TwoTierInvocations returns the two-tier invocations of the graph in
// post-order (deepest first), matching Algorithm 1's merge order.
func (g *Graph) TwoTierInvocations() []TwoTierInvocation {
	var out []TwoTierInvocation
	for _, n := range g.PostOrder() {
		if !n.IsLeaf() {
			out = append(out, TwoTierInvocation{Parent: n, Stages: n.Stages})
		}
	}
	return out
}

// Depth returns the maximum number of nodes on any root-to-leaf chain.
func (g *Graph) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		best := 0
		for _, st := range n.Stages {
			for _, c := range st {
				if d := depth(c); d > best {
					best = d
				}
			}
		}
		return best + 1
	}
	return depth(g.Root)
}

// EndToEnd computes the end-to-end latency of the service given a per-node
// latency function: a node's completion time is its own latency plus, for
// each stage in turn, the maximum subtree time within that stage (parallel
// calls overlap; stages serialize).
func (g *Graph) EndToEnd(latency func(*Node) float64) float64 {
	var total func(n *Node) float64
	total = func(n *Node) float64 {
		t := latency(n)
		for _, st := range n.Stages {
			var stageMax float64
			for _, c := range st {
				if v := total(c); v > stageMax {
					stageMax = v
				}
			}
			t += stageMax
		}
		return t
	}
	return total(g.Root)
}

// CriticalNodes returns the set of nodes on the critical path(s): nodes whose
// latency, if increased, would increase the end-to-end latency. Within each
// stage only the slowest child subtree (ties: all tied subtrees) is critical.
func (g *Graph) CriticalNodes(latency func(*Node) float64) []*Node {
	var total func(n *Node) float64
	total = func(n *Node) float64 {
		t := latency(n)
		for _, st := range n.Stages {
			var stageMax float64
			for _, c := range st {
				if v := total(c); v > stageMax {
					stageMax = v
				}
			}
			t += stageMax
		}
		return t
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, st := range n.Stages {
			var stageMax float64
			for _, c := range st {
				if v := total(c); v > stageMax {
					stageMax = v
				}
			}
			for _, c := range st {
				if total(c) == stageMax {
					walk(c)
				}
			}
		}
	}
	walk(g.Root)
	return out
}

// DOT renders the graph in Graphviz dot format; parallel calls within one
// stage share a style annotation. Useful for debugging topologies.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Service)
	for _, n := range g.PreOrder() {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.ID, n.Microservice)
		for k, st := range n.Stages {
			for _, c := range st {
				style := "solid"
				if len(st) > 1 {
					style = "bold"
				}
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"s%d\", style=%s];\n", n.ID, c.ID, k, style)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Merge overlays several dependency-graph variants observed for the same
// service into one complete graph (§7, "Handling dynamic dependencies").
// Variants are matched position-wise: stage k's calls are unioned by
// microservice name. The result contains every call seen in any variant.
func Merge(service string, variants ...*Graph) (*Graph, error) {
	if len(variants) == 0 {
		return nil, errors.New("graph: Merge needs at least one variant")
	}
	root := variants[0].Root.Microservice
	for _, v := range variants[1:] {
		if v.Root.Microservice != root {
			return nil, fmt.Errorf("graph: Merge root mismatch: %s vs %s", root, v.Root.Microservice)
		}
	}
	out := New(service, root)
	for _, v := range variants {
		if v.Root.Policy != nil {
			pol := *v.Root.Policy
			out.Root.Policy = &pol
			break
		}
	}
	var merge func(dst *Node, srcs []*Node)
	merge = func(dst *Node, srcs []*Node) {
		maxStages := 0
		for _, s := range srcs {
			if len(s.Stages) > maxStages {
				maxStages = len(s.Stages)
			}
		}
		for k := 0; k < maxStages; k++ {
			// Union stage k across variants, preserving first-seen order.
			var order []string
			children := make(map[string][]*Node)
			for _, s := range srcs {
				if k >= len(s.Stages) {
					continue
				}
				for _, c := range s.Stages[k] {
					if _, ok := children[c.Microservice]; !ok {
						order = append(order, c.Microservice)
					}
					children[c.Microservice] = append(children[c.Microservice], c)
				}
			}
			if len(order) == 0 {
				continue
			}
			stage := out.AddStage(dst, order...)
			for i, name := range order {
				// The merged edge keeps the first policy seen across variants
				// (variants are ordered; first-seen wins, like stage union).
				for _, c := range children[name] {
					if c.Policy != nil {
						pol := *c.Policy
						stage[i].Policy = &pol
						break
					}
				}
				merge(stage[i], children[name])
			}
		}
	}
	roots := make([]*Node, len(variants))
	for i, v := range variants {
		roots[i] = v.Root
	}
	merge(out.Root, roots)
	return out, nil
}
