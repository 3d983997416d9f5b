// Incremental, sharded multi-service planning: the per-window fast path
// that makes recomputation proportional to *change* instead of to topology
// size. PlanSchemeCached replans every service every window even when
// nothing about it moved; IncrementalPlanner extends the template cache's
// fingerprints from "recompile" to "skip the replan entirely" and fans the
// remaining work out across shards.
//
// Two structural facts make this sound:
//
//   - A service's final allocation is a pure function of its own plan
//     inputs (graph, SLA, models, shares, caps, utilizations), its own
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
// one Plan walks services in globally sorted order (the same order the
// monolithic planner uses), so the output is byte-identical to
// PlanSchemeCached at any shard count — including every float summation
// order.
//
// Ownership: a returned Plan is an immutable snapshot. It shares its
// per-service allocations and rank maps with the planner's caches, and a
// replan swaps fresh objects in (scaling's Plan materializes new maps,
// AssignPriorities a new rank map) instead of editing the old ones — so a
// plan stays valid across later windows, and callers must never write to it.
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
	cache  *scaling.TemplateCache
	shards int // requested; <=0 means one shard per pool worker

	// Topology snapshot the caches are valid against.
	haveState bool
	scheme    Scheme
	svcs      []string
	idx       map[string]int
	graphs    []*graph.Graph
	shared    []string
	sharedSet map[string]bool

	// Sharing-group partition and its shard pinning.
	groups       [][]int    // group -> member service indices, ascending
	groupMS      [][]string // group -> its shared microservices, sorted
	shardGroups  [][]int    // shard -> group ids, ascending
	numShards    int
	sharedSorted []string         // shared list in sorted order (merge fold order)
	sharedIdx    map[string]int32 // shared ms -> index into sharedSorted
	msSizeHint   int              // Σ graph sizes; pre-sizes the merged map

	// Per-service and per-group window caches.
	svcState   []svcState
	groupClean []bool
	groupRanks []map[string]map[string]int

	windows   atomic.Uint64
	skipped   atomic.Uint64
	dirty     atomic.Uint64
	shardRuns atomic.Uint64
}

// msMeta is one microservice's sealed merge contribution: everything the
// serial fold needs, captured at replan time so the per-window merge does
// no cache-map lookups. The sealed values stay valid exactly as long as
// the group is clean — ParamsMatch guards share, the fingerprint guards
// workloads, and finalAlloc (the source of n and raw) only changes on
// replan, which reseals.
type msMeta struct {
	ms        string
	sharedIdx int32 // index into planner.shared; -1 for private
	n         int
	raw       float64
	share     float64
}

// svcState is the cached outcome of the last successful window for one
// service. finalAlloc is never written after it is stored: returned plans
// point at it, and a replan replaces the pointer.
type svcState struct {
	fpOK       bool
	fp         uint64
	meta       []msMeta // sealed merge contributions, template ms order
	finalAlloc *scaling.Allocation
}

// IncrementalStats is a point-in-time snapshot of planner effectiveness.
type IncrementalStats struct {
	// Windows counts PlanScheme calls that produced a plan or error.
	Windows uint64
	// SkippedServices counts services whose previous allocation was reused
	// verbatim (cumulative across windows).
	SkippedServices uint64
	// DirtyServices counts services replanned because their sharing group
	// was dirtied (cumulative across windows).
	DirtyServices uint64
	// ShardRuns accumulates the number of shards planned per window.
	ShardRuns uint64
	// Shards is the effective shard count of the current partition.
	Shards int
}

// NewIncrementalPlanner creates a planner over the given template cache
// (nil allocates a private cache). shards requests the shard count for the
// group partition; <= 0 sizes it to the parallel worker pool, and it is
// always clamped to the number of sharing groups. Output is byte-identical
// to the monolithic PlanSchemeCached at any shard count.
func NewIncrementalPlanner(cache *scaling.TemplateCache, shards int) *IncrementalPlanner {
	if cache == nil {
		cache = scaling.NewTemplateCache()
	}
	return &IncrementalPlanner{cache: cache, shards: shards}
}

// Cache returns the underlying template cache.
func (p *IncrementalPlanner) Cache() *scaling.TemplateCache { return p.cache }

// Stats returns cumulative planner counters.
func (p *IncrementalPlanner) Stats() IncrementalStats {
	return IncrementalStats{
		Windows:         p.windows.Load(),
		SkippedServices: p.skipped.Load(),
		DirtyServices:   p.dirty.Load(),
		ShardRuns:       p.shardRuns.Load(),
		Shards:          p.numShards,
	}
}

// Groups returns the current sharing-group partition as sorted service
// names, ordered by each group's first member. Empty until the first
// PlanScheme call. Exposed for the dirty-closure tests and for operators
// inspecting shard pinning.
func (p *IncrementalPlanner) Groups() [][]string {
	out := make([][]string, 0, len(p.groups))
	for _, members := range p.groups {
		g := make([]string, len(members))
		for i, si := range members {
			g[i] = p.svcs[si]
		}
		out = append(out, g)
	}
	return out
}

// planErr orders a per-service failure the way the monolithic planner
// surfaces it: all initial-pass errors precede final-pass errors, and
// within a pass the lowest-sorted-index service wins (parallel.ForEach's
// lowest-indexed-failure contract).
type planErr struct {
	pass int // 0 = first planAll pass, 1 = priority final pass
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

// PlanScheme computes the multi-service plan for one window. It is the
// drop-in incremental equivalent of PlanSchemeCached(scheme, inputs,
// loads, shared, cache): byte-identical plans and errors, but windows only
// pay for the services whose sharing groups changed. The returned plan is
// read-only (see the package comment on ownership).
func (p *IncrementalPlanner) PlanScheme(scheme Scheme, inputs map[string]scaling.Input, loads map[string]map[string]float64, shared []string) (*Plan, error) {
	if len(inputs) == 0 {
		return nil, errors.New("multiplex: no services")
	}
	svcs := make([]string, 0, len(inputs))
	for svc := range inputs {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
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
	// disjoint group/service slots, so the fan-out is race-free; every
	// shard runs to completion so the surfaced error is deterministic at
	// any shard count.
	shardErrs := make([]*planErr, p.numShards)
	_ = parallel.ForEach(p.numShards, func(s int) error {
		for _, gi := range p.shardGroups[s] {
			if pe := p.planGroup(gi, inputs, loads); pe != nil && pe.before(shardErrs[s]) {
				shardErrs[s] = pe
			}
		}
		return nil
	})
	p.windows.Add(1)
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
// shared microservice"), pins each group to a shard, and drops every
// window cache. The next window replans everything.
func (p *IncrementalPlanner) rebuild(scheme Scheme, svcs []string, inputs map[string]scaling.Input, shared []string) {
	n := len(svcs)
	p.scheme = scheme
	p.svcs = append([]string(nil), svcs...)
	p.idx = make(map[string]int, n)
	for i, svc := range p.svcs {
		p.idx[svc] = i
	}
	p.graphs = make([]*graph.Graph, n)
	for i, svc := range p.svcs {
		p.graphs[i] = inputs[svc].Graph
	}
	p.shared = append([]string(nil), shared...)
	p.sharedSorted = append([]string(nil), shared...)
	sort.Strings(p.sharedSorted)
	p.sharedSet = make(map[string]bool, len(shared))
	p.sharedIdx = make(map[string]int32, len(shared))
	for i, ms := range p.sharedSorted {
		p.sharedSet[ms] = true
		p.sharedIdx[ms] = int32(i)
	}
	p.msSizeHint = 0
	for _, g := range p.graphs {
		if g != nil {
			p.msSizeHint += g.Len()
		}
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
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	msFirst := make(map[string]int, len(shared)) // shared ms -> first service seen
	for i, svc := range p.svcs {
		g := inputs[svc].Graph
		if g == nil {
			continue
		}
		for _, ms := range g.Microservices() {
			if !p.sharedSet[ms] {
				continue
			}
			if first, ok := msFirst[ms]; ok {
				union(first, i)
			} else {
				msFirst[ms] = i
			}
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
			p.groups = append(p.groups, nil)
		}
		p.groups[gi] = append(p.groups[gi], i)
	}
	p.groupMS = make([][]string, len(p.groups))
	for _, ms := range p.shared {
		if first, ok := msFirst[ms]; ok {
			gi := groupOf[find(first)]
			p.groupMS[gi] = append(p.groupMS[gi], ms)
		}
	}
	for gi := range p.groupMS {
		sort.Strings(p.groupMS[gi])
	}

	p.pinShards()

	p.svcState = make([]svcState, n)
	p.groupClean = make([]bool, len(p.groups))
	p.groupRanks = make([]map[string]map[string]int, len(p.groups))
	p.haveState = true
}

// pinShards assigns whole groups to shards: groups in descending size
// (ties by group id) go to the currently least-loaded shard (ties by shard
// id). Deterministic, balanced, and — because a group never splits — each
// shard can run the full priority pipeline for its groups without a
// cross-shard barrier.
func (p *IncrementalPlanner) pinShards() {
	ns := p.shards
	if ns <= 0 {
		ns = parallel.Workers()
	}
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
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if len(p.groups[ga]) != len(p.groups[gb]) {
			return len(p.groups[ga]) > len(p.groups[gb])
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
		loads[best] += len(p.groups[gi])
	}
	for s := range p.shardGroups {
		sort.Ints(p.shardGroups[s])
	}
}

// planGroup checks one sharing group's inputs against the window caches
// and, when anything changed, replans the whole group through the scheme
// pipeline. On success the group's caches are refreshed and marked clean;
// on failure they stay invalid so the next window replans again.
func (p *IncrementalPlanner) planGroup(gi int, inputs map[string]scaling.Input, loads map[string]map[string]float64) *planErr {
	members := p.groups[gi]
	dirty := !p.groupClean[gi]
	for _, si := range members {
		svc := p.svcs[si]
		in := inputs[svc]
		t := p.cache.Template(svc)
		if t == nil || !t.ParamsMatch(in) {
			dirty = true
			break
		}
		fp, ok := t.WindowFingerprint(loads[svc], in.CPUUtil, in.MemUtil)
		if !ok || !p.svcState[si].fpOK || fp != p.svcState[si].fp {
			dirty = true
			break
		}
	}
	if !dirty {
		p.skipped.Add(uint64(len(members)))
		return nil
	}
	p.dirty.Add(uint64(len(members)))
	p.groupClean[gi] = false

	// Replay the monolithic pipeline restricted to this group. Every value
	// that crosses services (ranks, cumulative and aggregate workloads) is
	// a pure function of group-internal data, so the restriction is exact:
	// same floats, same fold orders, same errors.
	planOne := func(si int, workloads map[string]float64, pass int) *planErr {
		svc := p.svcs[si]
		in := inputs[svc]
		in.Workloads = workloads
		alloc, err := p.cache.Plan(in)
		if err != nil {
			return &planErr{pass: pass, svc: si, err: fmt.Errorf("multiplex: service %s: %w", svc, err)}
		}
		p.svcState[si].finalAlloc = alloc
		return nil
	}

	switch p.scheme {
	case SchemeNonShared:
		for _, si := range members {
			if pe := planOne(si, loads[p.svcs[si]], 0); pe != nil {
				return pe
			}
		}

	case SchemeFCFS:
		groupLoads := make(map[string]map[string]float64, len(members))
		for _, si := range members {
			groupLoads[p.svcs[si]] = loads[p.svcs[si]]
		}
		fcfs := FCFSWorkloads(p.groupMS[gi], groupLoads)
		for _, si := range members {
			if pe := planOne(si, fcfs[p.svcs[si]], 0); pe != nil {
				return pe
			}
		}

	case SchemePriority:
		// 1. Initial targets from each member's own workload. These feed
		// the ranks and are then dropped.
		initial := make(map[string]*scaling.Allocation, len(members))
		for _, si := range members {
			svc := p.svcs[si]
			in := inputs[svc]
			in.Workloads = loads[svc]
			alloc, err := p.cache.Plan(in)
			if err != nil {
				return &planErr{pass: 0, svc: si, err: fmt.Errorf("multiplex: service %s: %w", svc, err)}
			}
			initial[svc] = alloc
		}
		// 2. Ranks at this group's shared microservices — only members
		// have targets there, so the group-local assignment equals the
		// global one. 3. Final plans from modified cumulative workloads.
		ranks := AssignPriorities(initial, p.groupMS[gi])
		p.groupRanks[gi] = ranks
		groupLoads := make(map[string]map[string]float64, len(members))
		for _, si := range members {
			groupLoads[p.svcs[si]] = loads[p.svcs[si]]
		}
		modified := ModifiedWorkloads(ranks, groupLoads)
		for _, si := range members {
			if pe := planOne(si, modified[p.svcs[si]], 1); pe != nil {
				return pe
			}
		}
	}

	// Seal the window: record each member's fingerprint against the
	// (possibly recompiled) template so an unchanged next window skips, and
	// capture each microservice's merge contribution (count, raw, share) so
	// the serial fold needs no cache-map lookups while the group is clean.
	for _, si := range members {
		svc := p.svcs[si]
		t := p.cache.Template(svc)
		st := &p.svcState[si]
		st.fp, st.fpOK = t.WindowFingerprint(loads[svc], inputs[svc].CPUUtil, inputs[svc].MemUtil)
		mss := t.Microservices()
		if cap(st.meta) < len(mss) {
			st.meta = make([]msMeta, len(mss))
		}
		st.meta = st.meta[:len(mss)]
		shares := inputs[svc].Shares
		alloc := st.finalAlloc
		for i, ms := range mss {
			shIdx := int32(-1)
			if j, ok := p.sharedIdx[ms]; ok {
				shIdx = j
			}
			st.meta[i] = msMeta{
				ms:        ms,
				sharedIdx: shIdx,
				n:         alloc.Containers[ms],
				raw:       alloc.ContainersRaw[ms],
				share:     shares[ms],
			}
		}
	}
	p.groupClean[gi] = true
	return nil
}

// fold assembles the window's Plan from the per-service caches, walking
// services in globally sorted order so every float summation replays the
// monolithic merge bit for bit. Allocations and rank maps are the cached
// objects themselves; only the outer maps and Containers are per-window.
func (p *IncrementalPlanner) fold(scheme Scheme) *Plan {
	plan := &Plan{
		Scheme:     scheme,
		Containers: make(map[string]int, p.msSizeHint),
		PerService: make(map[string]*scaling.Allocation, len(p.svcs)),
	}
	for i, svc := range p.svcs {
		plan.PerService[svc] = p.svcState[i].finalAlloc
	}
	if scheme == SchemePriority {
		plan.Ranks = make(map[string]map[string]int, len(p.shared))
		for gi := range p.groups {
			for ms, bySvc := range p.groupRanks[gi] {
				plan.Ranks[ms] = bySvc
			}
		}
	}

	if scheme == SchemeNonShared {
		// The monolithic non-sharing merge sums every microservice — shared
		// ones included — and folds each service's whole ResourceUsage in
		// sorted service order.
		for i := range p.svcs {
			st := &p.svcState[i]
			for _, m := range st.meta {
				plan.Containers[m.ms] += m.n
			}
			plan.ResourceUsage += st.finalAlloc.ResourceUsage
		}
		return plan
	}

	// Priority/FCFS merge: shared microservices deploy the max requirement
	// across services, private ones add. Iteration replays the monolithic
	// merge exactly — sorted services, each service's microservices in
	// sorted order (the sealed meta list) — with the shared-max accumulators
	// held in dense arrays indexed by sorted shared position, so the only
	// per-microservice map operation left is the merged-count assignment.
	rawMax := make([]float64, len(p.sharedSorted))
	shareOf := make([]float64, len(p.sharedSorted))
	touched := make([]bool, len(p.sharedSorted))
	for i := range p.svcs {
		for _, m := range p.svcState[i].meta {
			if m.sharedIdx < 0 {
				plan.Containers[m.ms] += m.n
				plan.ResourceUsage += m.raw * m.share
				continue
			}
			if m.n > plan.Containers[m.ms] {
				plan.Containers[m.ms] = m.n
			}
			j := m.sharedIdx
			if m.raw > rawMax[j] {
				rawMax[j] = m.raw
			}
			shareOf[j] = m.share
			touched[j] = true
		}
	}
	// sharedSorted is sorted, so walking it skips nothing the monolithic
	// sortutil.Keys(rawMax) fold would visit, in the same order.
	for j := range p.sharedSorted {
		if touched[j] {
			plan.ResourceUsage += rawMax[j] * shareOf[j]
		}
	}
	return plan
}
