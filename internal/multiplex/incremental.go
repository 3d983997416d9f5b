// Incremental, sharded multi-service planning: the one implementation of
// §5.3.2 (initial targets → priority ranks → modified workloads → final
// plan). A fresh planner's first window replans every service, which is what
// planning from scratch means here; a planner kept across windows makes
// recomputation proportional to *change* instead of to topology size. It
// extends the template cache's fingerprints from "recompile" to "skip the
// replan entirely" and fans the remaining work out across shards.
//
// Two structural facts make this sound:
//
//   - A service's final allocation is a pure function of its own plan
//     inputs (graph, SLA, models, shares, utilizations), its own
//     workload, and — through the Eq. 5 cross-service coupling at shared
//     microservices (priority ranks, cumulative/aggregate workloads) — the
//     workloads and initial targets of every service it shares a
//     microservice with. Transitively closing "shares a microservice with"
//     partitions the services into *sharing groups*; nothing outside a
//     service's group can influence its plan.
//
//   - Therefore the dirty closure of any input change is the sharing group
//     of the changed service: a workload change on any service sharing
//     microservice m dirties every service in m's group, and a clean group
//     — every member's template valid and window fingerprint unchanged —
//     can reuse last window's allocations and ranks verbatim.
//
// Sharding pins whole groups to one shard, so each shard runs the full
// initial-targets → priority-ranks → modified-workloads → final-plan
// pipeline for its groups with no cross-shard barrier. The fold back into
// one Plan walks services in globally sorted order (the order of the
// map-based whole-app pipeline this package's tests keep as the oracle,
// monolithicPlan), so the output is byte-identical to that oracle at any
// shard count — including every float summation order.
//
// Names are resolved once per topology. A rebuild turns every sharing group
// into a flat index — its members' workload vectors laid end to end in each
// template's microservice order, and per shared microservice the (member,
// vector position) pairs that meet there — so a window gathers each
// service's workloads out of the name-keyed loads once, and fingerprints,
// evaluates (scaling.Template.Solve), ranks, prefix-sums and folds over
// slices. The only maps a window builds are the ones its Plan hands out: a
// Targets map per replanned service, a rank map per reordered shared
// microservice, and the Plan's outer maps.
//
// Ownership: a returned Plan is an immutable snapshot. It shares its
// per-service allocations and rank maps with the planner's caches, and a
// replan swaps fresh objects in (Template.Allocation materializes a new
// Targets map and new slices; a shared microservice whose rank order moved
// gets a new rank map, one whose order held keeps the map it had) instead of
// editing the old ones — so a plan stays valid across later windows, and
// callers must never write to it.
package multiplex

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"erms/internal/graph"
	"erms/internal/parallel"
	"erms/internal/scaling"
)

// IncrementalPlanner plans one scheme over one evolving topology, window
// after window, skipping every service whose inputs did not change since
// the last successful window. The zero value is not usable; call
// NewIncrementalPlanner. A planner instance is not safe for concurrent
// PlanScheme calls (the reconciler plans one window at a time); the
// sharded work *inside* one call fans out over internal/parallel.
type IncrementalPlanner struct {
	cache *scaling.TemplateCache

	// Topology snapshot the caches are valid against.
	haveState bool
	scheme    Scheme
	svcs      []string
	graphs    []*graph.Graph
	shared    []string

	// Sharing-group partition and its shard pinning.
	groups       []group
	shardGroups  [][]int // shard -> group ids, ascending
	numShards    int
	sharedSorted []string // distinct shared microservices, sorted (merge fold order)
	numMS        int      // distinct microservices; pre-sizes the merged map

	// Per-service window caches. sharedAt is flat over every service's
	// microservices in template order; svcState.first is a service's offset
	// into it.
	svcState []svcState
	sharedAt []int32 // index into sharedSorted; -1 for a private microservice
	scratch  []shardScratch

	skipped   atomic.Uint64
	dirty     atomic.Uint64
	shardRuns atomic.Uint64
}

// group is one sharing group's index, built at rebuild. Its members' workload
// vectors lie end to end in a shard's scratch, member k at [off[k], off[k+1]),
// each in its template's microservice order; a site is one member's position
// at one shared microservice, addressed by its offset into that layout.
type group struct {
	members []int   // service indices, ascending
	off     []int32 // len(members)+1
	ms      []string
	siteOff []int32 // ms[j]'s sites are sites[siteOff[j]:siteOff[j+1]], ascending member
	sites   []site
	// order[siteOff[j]:siteOff[j+1]] is ms[j]'s priority order from the last
	// replan (rank -> site within the span) and ranks[j] the map built from it.
	// The map is never edited: a window that moves the order builds another.
	order []int32
	ranks []map[string]int
	clean bool
}

type site struct{ member, at int32 }

// shardScratch is what one shard needs to replan one group: the group's
// workload vectors and initial targets (group.off layout), which workloads
// the loads actually listed, per-member notes from the gather loop, and the
// Eval every template of the shard is solved into.
type shardScratch struct {
	eval           scaling.Eval
	gamma, targets []float64
	present        []bool
	member         []memberScratch
}

type memberScratch struct {
	cpu, mem float64
	fp       uint64
	fpOK     bool
	compiled bool  // the template was built this window: its first evaluation is no hit
	err      error // the template could not be built
}

// svcState is the cached outcome of the last successful window for one
// service. finalAlloc is never written after it is stored: returned plans
// point at it, and a replan replaces the pointer. tpl is the template the
// allocation came from, revalidated with ParamsMatch every window.
type svcState struct {
	tpl        *scaling.Template
	first      int32 // offset of the service's microservices in sharedAt
	fpOK       bool
	fp         uint64
	finalAlloc *scaling.Allocation
}

// IncrementalStats is a point-in-time snapshot of planner effectiveness.
type IncrementalStats struct {
	// SkippedServices counts services whose previous allocation was reused
	// verbatim (cumulative across windows).
	SkippedServices uint64
	// DirtyServices counts services replanned because their sharing group
	// was dirtied (cumulative across windows).
	DirtyServices uint64
	// ShardRuns accumulates the number of shards planned per window.
	ShardRuns uint64
}

// NewIncrementalPlanner creates a planner over the given template cache
// (nil allocates a private cache). The group partition gets one shard per
// parallel pool worker, clamped to the number of sharing groups. A fresh
// planner is the from-scratch planner: its first PlanScheme replans every
// sharing group. Output is byte-identical at any shard count, and to the
// map-based oracle of this package's tests.
func NewIncrementalPlanner(cache *scaling.TemplateCache) *IncrementalPlanner {
	if cache == nil {
		cache = scaling.NewTemplateCache()
	}
	return &IncrementalPlanner{cache: cache}
}

// Stats returns cumulative planner counters.
func (p *IncrementalPlanner) Stats() IncrementalStats {
	return IncrementalStats{
		SkippedServices: p.skipped.Load(),
		DirtyServices:   p.dirty.Load(),
		ShardRuns:       p.shardRuns.Load(),
	}
}

// Groups returns the current sharing-group partition as sorted service
// names, ordered by each group's first member. Empty until the first
// PlanScheme call. Exposed for the dirty-closure tests and for operators
// inspecting shard pinning.
func (p *IncrementalPlanner) Groups() [][]string {
	out := make([][]string, 0, len(p.groups))
	for gi := range p.groups {
		members := p.groups[gi].members
		g := make([]string, len(members))
		for i, si := range members {
			g[i] = p.svcs[si]
		}
		out = append(out, g)
	}
	return out
}

// planErr orders a per-service failure the way the whole-app pipeline
// surfaces it: all initial-pass errors precede final-pass errors, and
// within a pass the lowest-sorted-index service wins (parallel.ForEach's
// lowest-indexed-failure contract).
type planErr struct {
	pass int // 0 = initial (or only) pass, 1 = priority final pass
	svc  int // global sorted service index
	err  error
}

func (e *planErr) before(o *planErr) bool {
	if o == nil {
		return true
	}
	if e.pass != o.pass {
		return e.pass < o.pass
	}
	return e.svc < o.svc
}

// PlanScheme computes the multi-service plan for one window: the plan and
// error a from-scratch plan of the same inputs gives, bit for bit, but a
// window only pays for the services whose sharing groups changed. inputs[svc]
// carries each service's graph, SLA, models, shares and the cluster
// utilization; its Workloads field is ignored and replaced according to the
// scheme. shared lists the microservices multiplexed across services.
// loads[svc][ms] is the service's own call rate at each of its
// microservices (requests/minute), read at the microservices of svc's graph
// (what Controller.Loads and every caller here produces; other keys are
// ignored). The returned plan is read-only (see the package comment on
// ownership).
func (p *IncrementalPlanner) PlanScheme(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string) (*Plan, error) {
	if len(inputs) == 0 {
		return nil, errors.New("multiplex: no services")
	}
	svcs := p.svcs
	if !p.sameServices(inputs) {
		svcs = make([]string, 0, len(inputs))
		for svc := range inputs {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
	}
	for _, svc := range svcs {
		if _, ok := loads[svc]; !ok {
			return nil, fmt.Errorf("multiplex: no loads for service %s", svc)
		}
	}
	switch scheme {
	case SchemePriority, SchemeFCFS, SchemeNonShared:
	default:
		return nil, fmt.Errorf("multiplex: unknown scheme %v", scheme)
	}

	if p.needsRebuild(scheme, svcs, inputs, shared) {
		p.rebuild(scheme, svcs, inputs, shared)
	}

	// Phase 1 — per shard: detect dirty groups, replan them. Shards touch
	// disjoint group/service slots and each has its own scratch, so the
	// fan-out is race-free; every shard runs to completion so the surfaced
	// error is deterministic at any shard count.
	shardErrs := make([]*planErr, p.numShards)
	_ = parallel.ForEach(p.numShards, func(s int) error {
		for _, gi := range p.shardGroups[s] {
			if pe := p.planGroup(&p.groups[gi], &p.scratch[s], inputs, loads); pe != nil && pe.before(shardErrs[s]) {
				shardErrs[s] = pe
			}
		}
		return nil
	})
	p.shardRuns.Add(uint64(p.numShards))
	var firstErr *planErr
	for _, pe := range shardErrs {
		if pe != nil && pe.before(firstErr) {
			firstErr = pe
		}
	}
	if firstErr != nil {
		return nil, firstErr.err
	}

	return p.fold(scheme), nil
}

// sameServices reports whether inputs holds exactly the services of the
// cached topology, in which case their sorted order is already known.
func (p *IncrementalPlanner) sameServices(inputs map[string]scaling.Input) bool {
	if !p.haveState || len(inputs) != len(p.svcs) {
		return false
	}
	for _, svc := range p.svcs {
		if _, ok := inputs[svc]; !ok {
			return false
		}
	}
	return true
}

// needsRebuild reports whether the cached partition no longer describes
// the presented topology: different scheme, service set, shared list, or
// any service whose graph *shape* changed (a rebuilt graph with the same
// shape just re-anchors the pointer). Structural change can move
// microservices between services — i.e. re-draw the sharing groups — so it
// conservatively invalidates everything.
func (p *IncrementalPlanner) needsRebuild(scheme Scheme, svcs []string, inputs map[string]scaling.Input, shared []string) bool {
	if !p.haveState || scheme != p.scheme || len(svcs) != len(p.svcs) || len(shared) != len(p.shared) {
		return true
	}
	for i, svc := range svcs {
		if p.svcs[i] != svc {
			return true
		}
	}
	for i, ms := range shared {
		if p.shared[i] != ms {
			return true
		}
	}
	for i, svc := range svcs {
		g := inputs[svc].Graph
		if g == p.graphs[i] {
			continue
		}
		t := p.cache.Template(svc)
		if t == nil || g == nil || !t.StructMatches(g) {
			return true
		}
		// Same shape, fresh pointer: adopt it so the next window's check
		// is a pointer comparison again.
		p.graphs[i] = g
	}
	return false
}

// rebuild derives the sharing groups (union-find over "appears in the same
// shared microservice"), resolves every group's vector layout and shared
// sites, pins each group to a shard, and drops every window cache. The next
// window replans everything.
func (p *IncrementalPlanner) rebuild(scheme Scheme, svcs []string, inputs map[string]scaling.Input, shared []string) {
	n := len(svcs)
	p.scheme = scheme
	p.svcs = append([]string(nil), svcs...)
	p.graphs = make([]*graph.Graph, n)
	// names[i] is service i's sorted microservice list — the order its
	// template will use (both come from graph.CallCounts).
	names := make([][]string, n)
	total := 0
	for i, svc := range p.svcs {
		p.graphs[i] = inputs[svc].Graph
		if g := p.graphs[i]; g != nil {
			names[i], _ = g.CallCounts()
			total += len(names[i])
		}
	}
	p.shared = append([]string(nil), shared...)
	p.sharedSorted = append([]string(nil), shared...)
	sort.Strings(p.sharedSorted)
	p.sharedSorted = dedupSorted(p.sharedSorted)
	sharedIdx := make(map[string]int32, len(p.sharedSorted))
	for j, ms := range p.sharedSorted {
		sharedIdx[ms] = int32(j)
	}

	// Union-find: all services containing a shared microservice join one
	// group. Services are visited in sorted order and microservices in
	// each graph's sorted order, so the partition is deterministic.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	p.svcState = make([]svcState, n)
	p.sharedAt = make([]int32, 0, total)
	msFirst := make([]int, len(p.sharedSorted)) // shared ms -> first service seen, -1 none
	for j := range msFirst {
		msFirst[j] = -1
	}
	private := 0
	for i := range p.svcs {
		p.svcState[i].first = int32(len(p.sharedAt))
		for _, ms := range names[i] {
			j, ok := sharedIdx[ms]
			if !ok {
				p.sharedAt = append(p.sharedAt, -1)
				private++
				continue
			}
			p.sharedAt = append(p.sharedAt, j)
			if first := msFirst[j]; first < 0 {
				msFirst[j] = i
			} else if ra, rb := find(first), find(i); ra != rb {
				parent[rb] = ra
			}
		}
	}
	// A private microservice normally belongs to one service; where a caller's
	// shared list leaves out a microservice several graphs hold, the hint
	// overshoots by the repeats.
	p.numMS = private
	for _, first := range msFirst {
		if first >= 0 {
			p.numMS++
		}
	}

	// Materialize groups ordered by their smallest member index; members
	// ascend within each group.
	groupOf := make(map[int]int, n)
	p.groups = p.groups[:0]
	for i := 0; i < n; i++ {
		r := find(i)
		gi, ok := groupOf[r]
		if !ok {
			gi = len(p.groups)
			groupOf[r] = gi
			p.groups = append(p.groups, group{})
		}
		p.groups[gi].members = append(p.groups[gi].members, i)
	}
	// Shared microservices go to their group in sorted order, each with a
	// group-local index.
	local := make([]int32, len(p.sharedSorted))
	for j, first := range msFirst {
		if first >= 0 {
			g := &p.groups[groupOf[find(first)]]
			local[j] = int32(len(g.ms))
			g.ms = append(g.ms, p.sharedSorted[j])
		}
	}
	for gi := range p.groups {
		g := &p.groups[gi]
		g.off = make([]int32, len(g.members)+1)
		g.siteOff = make([]int32, len(g.ms)+1)
		for k, si := range g.members {
			g.off[k+1] = g.off[k] + int32(len(names[si]))
			first := p.svcState[si].first
			for pos := range names[si] {
				if j := p.sharedAt[int(first)+pos]; j >= 0 {
					g.siteOff[local[j]+1]++
				}
			}
		}
		for j := range g.ms {
			g.siteOff[j+1] += g.siteOff[j]
		}
		g.sites = make([]site, g.siteOff[len(g.ms)])
		g.order = make([]int32, len(g.sites))
		g.ranks = make([]map[string]int, len(g.ms))
		next := append([]int32(nil), g.siteOff[:len(g.ms)]...)
		for k, si := range g.members {
			first := p.svcState[si].first
			for pos := range names[si] {
				if j := p.sharedAt[int(first)+pos]; j >= 0 {
					lj := local[j]
					g.order[next[lj]] = next[lj] - g.siteOff[lj]
					g.sites[next[lj]] = site{member: int32(k), at: g.off[k] + int32(pos)}
					next[lj]++
				}
			}
		}
	}

	p.pinShards()
	p.haveState = true
}

// dedupSorted drops repeats from a sorted list in place.
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// pinShards assigns whole groups to shards: groups in descending size
// (ties by group id) go to the currently least-loaded shard (ties by shard
// id). Deterministic, balanced, and — because a group never splits — each
// shard can run the full priority pipeline for its groups without a
// cross-shard barrier. Each shard gets scratch for its largest group.
func (p *IncrementalPlanner) pinShards() {
	ns := parallel.Workers()
	if ns > len(p.groups) {
		ns = len(p.groups)
	}
	if ns < 1 {
		ns = 1
	}
	p.numShards = ns
	order := make([]int, len(p.groups))
	for i := range order {
		order[i] = i
	}
	size := func(gi int) int { return len(p.groups[gi].members) }
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if size(ga) != size(gb) {
			return size(ga) > size(gb)
		}
		return ga < gb
	})
	p.shardGroups = make([][]int, ns)
	loads := make([]int, ns)
	for _, gi := range order {
		best := 0
		for s := 1; s < ns; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		p.shardGroups[best] = append(p.shardGroups[best], gi)
		loads[best] += size(gi)
	}
	p.scratch = make([]shardScratch, ns)
	for s := range p.shardGroups {
		sort.Ints(p.shardGroups[s])
		members, width := 0, 0
		for _, gi := range p.shardGroups[s] {
			g := &p.groups[gi]
			members = max(members, len(g.members))
			width = max(width, int(g.off[len(g.members)]))
		}
		p.scratch[s] = shardScratch{
			gamma: make([]float64, width), targets: make([]float64, width),
			present: make([]bool, width), member: make([]memberScratch, members),
		}
	}
}

// planGroup checks one sharing group's inputs against the window caches
// and, when anything changed, replans the whole group through the scheme
// pipeline. On success the group's caches are refreshed and marked clean;
// on failure they stay invalid so the next window replans again.
func (p *IncrementalPlanner) planGroup(g *group, sc *shardScratch, inputs map[string]scaling.Input, loads map[string]map[string]float64) *planErr {
	// Gather: every member's template, validated once for the window, and its
	// workloads as a vector in the template's order. A workload the loads do
	// not list reads 0, which the evaluation rejects as scaling.Plan does.
	dirty := !g.clean
	for k, si := range g.members {
		svc := p.svcs[si]
		in := inputs[svc]
		st := &p.svcState[si]
		m := &sc.member[k]
		*m = memberScratch{cpu: in.CPUUtil, mem: in.MemUtil}
		if st.tpl == nil || !st.tpl.ParamsMatch(in) {
			dirty = true
			st.tpl, m.compiled, m.err = p.cache.Resolve(in)
		}
		var mss []string
		if st.tpl != nil {
			mss = st.tpl.Microservices()
		} else if in.Graph != nil {
			// No template, so this member's error ends the window — unless a
			// member before it fails first, and under FCFS that one's
			// workloads include this one's.
			mss, _ = in.Graph.CallCounts()
		}
		byMS := loads[svc]
		gamma, present := sc.gamma[g.off[k]:g.off[k+1]], sc.present[g.off[k]:g.off[k+1]]
		for i, ms := range mss {
			gamma[i], present[i] = byMS[ms]
		}
		m.fp, m.fpOK = scaling.WindowFingerprint(gamma, in.CPUUtil, in.MemUtil)
		if !m.fpOK || !st.fpOK || m.fp != st.fp {
			dirty = true
		}
	}
	if !dirty {
		p.skipped.Add(uint64(len(g.members)))
		return nil
	}
	p.dirty.Add(uint64(len(g.members)))
	g.clean = false

	// Replay the whole-app pipeline restricted to this group. Every value
	// that crosses services (ranks, cumulative and aggregate workloads) is
	// a pure function of group-internal data, so the restriction is exact:
	// same floats, same fold orders, same errors.
	hits := 0
	defer func() { p.cache.AddHits(hits) }()
	// solve evaluates member k on its vector as it stands in the scratch.
	solve := func(k, pass int) *planErr {
		si, m := g.members[k], &sc.member[k]
		err := m.err
		if err == nil {
			if !m.compiled {
				hits++
			}
			m.compiled = false
			err = p.svcState[si].tpl.Solve(&sc.eval, sc.gamma[g.off[k]:g.off[k+1]], m.cpu, m.mem)
		}
		if err != nil {
			return &planErr{pass: pass, svc: si, err: fmt.Errorf("multiplex: service %s: %w", p.svcs[si], err)}
		}
		return nil
	}

	final := 0
	switch p.scheme {
	case SchemeFCFS:
		// Every service sees the aggregate at a shared microservice: the sum,
		// in sorted service order, over the members that list a workload there.
		for j := range g.ms {
			sites := g.sites[g.siteOff[j]:g.siteOff[j+1]]
			total := 0.0
			for _, s := range sites {
				if sc.present[s.at] {
					total += sc.gamma[s.at]
				}
			}
			for _, s := range sites {
				if sc.present[s.at] {
					sc.gamma[s.at] = total
				}
			}
		}

	case SchemePriority:
		// 1. Initial targets from each member's own workload: only the
		// targets are kept, nothing is materialized.
		for k := range g.members {
			if pe := solve(k, 0); pe != nil {
				return pe
			}
			copy(sc.targets[g.off[k]:g.off[k+1]], sc.eval.Targets)
		}
		// 2. Ranks at this group's shared microservices — only members have
		// targets there, so the group-local assignment equals the global one:
		// ascending (target, service name), which within a site span is
		// (target, site index). The previous window's order is the starting
		// point, so a steady order costs one comparison per service.
		// 3. Modified workloads: the cumulative sum down the rank order
		// replaces each member's own workload in place.
		final = 1
		for j := range g.ms {
			sites := g.sites[g.siteOff[j]:g.siteOff[j+1]]
			order := g.order[g.siteOff[j]:g.siteOff[j+1]]
			moved := g.ranks[j] == nil
			for i := 1; i < len(order); i++ {
				x, h := order[i], i
				tx := sc.targets[sites[x].at]
				for ; h > 0; h-- {
					y := order[h-1]
					if ty := sc.targets[sites[y].at]; ty < tx || (ty == tx && y < x) {
						break
					}
					order[h] = y
				}
				if h != i {
					order[h], moved = x, true
				}
			}
			if moved {
				ranks := make(map[string]int, len(order))
				for r, x := range order {
					ranks[p.svcs[g.members[sites[x].member]]] = r
				}
				g.ranks[j] = ranks
			}
			cum := 0.0
			for _, x := range order {
				cum += sc.gamma[sites[x].at]
				sc.gamma[sites[x].at] = cum
			}
		}
	}

	// Final (for FCFS and non-sharing, only) pass. Each success is sealed on
	// the spot as the allocation, whose position-indexed slices are what the
	// fold reads, so a clean window costs it no map lookups.
	for k, si := range g.members {
		if pe := solve(k, final); pe != nil {
			return pe
		}
		st := &p.svcState[si]
		st.finalAlloc = st.tpl.Allocation(&sc.eval)
	}
	// The fingerprints are of the members' own workloads, taken at gather
	// time; storing them only now keeps a failed window dirty.
	for k, si := range g.members {
		p.svcState[si].fp, p.svcState[si].fpOK = sc.member[k].fp, sc.member[k].fpOK
	}
	g.clean = true
	return nil
}

// fold assembles the window's Plan from the per-service caches, walking
// services in globally sorted order so every float summation replays the
// whole-app merge bit for bit. Allocations and rank maps are the cached
// objects themselves; only the outer maps and Containers are per-window.
func (p *IncrementalPlanner) fold(scheme Scheme) *Plan {
	plan := &Plan{
		Scheme:     scheme,
		Containers: make(map[string]int, p.numMS),
		PerService: make(map[string]*scaling.Allocation, len(p.svcs)),
	}
	for i, svc := range p.svcs {
		plan.PerService[svc] = p.svcState[i].finalAlloc
	}
	if scheme == SchemePriority {
		plan.Ranks = make(map[string]map[string]int, len(p.sharedSorted))
		for gi := range p.groups {
			g := &p.groups[gi]
			for j, ms := range g.ms {
				plan.Ranks[ms] = g.ranks[j]
			}
		}
	}

	if scheme == SchemeNonShared {
		// The whole-app non-sharing merge sums every microservice — shared
		// ones included — and folds each service's whole ResourceUsage in
		// sorted service order.
		for i := range p.svcs {
			alloc := p.svcState[i].finalAlloc
			for k, ms := range alloc.Microservices {
				plan.Containers[ms] += alloc.Containers[k]
			}
			plan.ResourceUsage += alloc.ResourceUsage
		}
		return plan
	}

	// Priority/FCFS merge: shared microservices deploy the max requirement
	// across services, private ones add. Iteration replays the whole-app
	// merge exactly — sorted services, each service's microservices in
	// sorted order (the template's list) — with the shared-max accumulators
	// held in dense arrays indexed by sorted shared position, so the only
	// per-microservice map operation left is the merged-count assignment.
	rawMax := make([]float64, len(p.sharedSorted))
	shareOf := make([]float64, len(p.sharedSorted))
	nMax := make([]int, len(p.sharedSorted))
	touched := make([]bool, len(p.sharedSorted))
	for i := range p.svcs {
		st := &p.svcState[i]
		alloc, shares := st.finalAlloc, st.tpl.Shares()
		for k, ms := range alloc.Microservices {
			raw, n, j := alloc.ContainersRaw[k], alloc.Containers[k], p.sharedAt[int(st.first)+k]
			if j < 0 {
				plan.Containers[ms] += n
				plan.ResourceUsage += raw * shares[k]
				continue
			}
			if n > nMax[j] {
				nMax[j] = n
			}
			if raw > rawMax[j] {
				rawMax[j] = raw
			}
			shareOf[j] = shares[k]
			touched[j] = true
		}
	}
	// sharedSorted is sorted, so walking it skips nothing the whole-app
	// fold over the sorted keys of rawMax would visit, in the same order.
	for j, ms := range p.sharedSorted {
		if touched[j] {
			plan.Containers[ms] = nMax[j]
			plan.ResourceUsage += rawMax[j] * shareOf[j]
		}
	}
	return plan
}
