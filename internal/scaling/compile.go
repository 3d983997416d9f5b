// Compiled plan templates: the per-window hot path of Latency Target
// Computation, factored so that everything static across reconciler windows
// (graph validation, the Algorithm-1 merge/chain reduction, unwind order,
// per-microservice lookups, call multiplicities) runs once at Compile time,
// and a window only re-evaluates A_i = a_i·γ_i and the closed-form Eq. 5
// split over flat, pre-ordered slices: Solve takes the workloads as a vector
// in the template's microservice order and leaves the result in a caller-
// owned Eval, Allocation turns that into the name-keyed maps a plan hands
// out, and Plan is the map-in/map-out composition of the two. This is the
// only implementation of Algorithm 1 and the Eq. 5 split outside the tests:
// the package-level Plan compiles a template per call, Explain renders one,
// and the planners cache them. The paper-literal recursive merge tree is the
// test oracle (naivePlan, oracle_test.go), which every evaluation matches bit
// for bit — same operand and summation order, same clamps, same error
// precedence.
package scaling

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"erms/internal/graph"
	"erms/internal/profiling"
)

// opKind distinguishes compiled merge-tree ops: a real microservice, or a
// virtual one for sequential (Eq. 7-9) or parallel (Eq. 11-12) components.
type opKind uint8

const (
	opLeaf opKind = iota
	opSeq
	opPar
)

// planOp is one node of the compiled merge tree in flat form. Kids are a
// span into Template.kids, always emitted before their parent (post-order),
// so a single forward sweep over ops evaluates the whole reduction.
type planOp struct {
	kind opKind
	// ms indexes Template.mss for leaves; -1 otherwise.
	ms int32
	// kidStart/kidEnd span Template.kids for seq/par ops.
	kidStart, kidEnd int32
}

// Template is a compiled plan for one service: the Algorithm-1 reduction of
// its dependency graph with per-microservice bindings resolved. Obtain one
// with Compile; re-evaluate it each window with Plan or Solve. A Template is
// internally locked, so concurrent evaluations are safe (they serialize);
// distinct Templates never contend.
type Template struct {
	// Service names the compiled service (== Graph.Service at compile time).
	Service string
	// SLA captured at compile time (part of the fingerprint).
	slaThreshold  float64
	slaPercentile float64

	// mss lists the distinct microservices in sorted order; all per-ms
	// slices below are indexed by position in mss. mult is the number of
	// graph positions each occupies (covered by structHash, like mss).
	mss    []string
	mult   []int
	models []profiling.Model
	shares []float64

	// ops is the merge tree in post-order (kids before parents); kids is the
	// shared child-index arena; pre is the root-first unwind order, parents
	// before children and children in stage order, which fixes the error
	// precedence and the order targets are assigned in.
	ops  []planOp
	kids []int32
	pre  []int32
	root int32

	// structHash fingerprints the graph shape (service, node count, DFS of
	// microservice names and stage widths); paramHash fingerprints SLA,
	// shares, and model probes. TemplateCache uses the pair to decide
	// hit vs. recompile.
	structHash uint64
	paramHash  uint64

	// memo holds every model's response at one utilization point, the last
	// one evaluated: both passes of a window, and every window while the
	// cluster means hold still, call each model once. The key is the bit
	// pattern of (cpuUtil, memUtil); the models themselves cannot change under
	// a template (a swapped model fails ParamsMatch and compiles a new one).
	mu               sync.Mutex
	memo             []modelPoint
	memoCPU, memoMem uint64
	memoOK           bool
}

// modelPoint is one model evaluated at one (cpuUtil, memUtil): the knee and
// both intervals' slope and intercept.
type modelPoint struct {
	knee, aHi, bHi, aLo, bLo float64
}

// Eval is the working set and the result of one template evaluation. It
// belongs to its caller and serves any template, so a planner that keeps one
// per goroutine evaluates a window without allocating once the Eval has
// grown to the largest template it has met; the zero value is ready. After a
// successful Solve the exported slices hold the outcome in the template's
// microservice order (Template.Microservices); the next Solve overwrites
// them.
type Eval struct {
	// Targets is the latency target (ms) per microservice.
	Targets []float64
	// Raw is the exact (fractional) container requirement.
	Raw []float64
	// Containers is Raw rounded up (§7).
	Containers []int
	// UsedHigh records which interval of the piece-wise model was used.
	UsedHigh []bool

	// Per-op state for one pass.
	a, b, r, p, q, target []float64
	// seen marks the microservices the unwind has reached in this pass.
	seen []bool
	// gamma is Plan's map-to-vector buffer.
	gamma []float64
}

// fit sizes the Eval for a template of nOps merge-tree ops over nMS
// microservices, reusing what it already holds.
func (e *Eval) fit(nOps, nMS int) {
	grow := func(buf []float64, n int) []float64 {
		if cap(buf) < n {
			return make([]float64, n)
		}
		return buf[:n]
	}
	e.a, e.b, e.r = grow(e.a, nOps), grow(e.b, nOps), grow(e.r, nOps)
	e.p, e.q, e.target = grow(e.p, nOps), grow(e.q, nOps), grow(e.target, nOps)
	e.Targets, e.Raw = grow(e.Targets, nMS), grow(e.Raw, nMS)
	if cap(e.Containers) < nMS {
		e.Containers = make([]int, nMS)
		e.UsedHigh, e.seen = make([]bool, nMS), make([]bool, nMS)
	}
	e.Containers, e.UsedHigh, e.seen = e.Containers[:nMS], e.UsedHigh[:nMS], e.seen[:nMS]
}

// evalPool backs the map-keyed Plan, whose callers (the package-level Plan
// among them) have no Eval of their own to pass.
var evalPool = sync.Pool{New: func() any { return new(Eval) }}

// Compile validates the input's static bindings once, runs the Algorithm-1
// merge/chain reduction once, and captures unwind order and per-microservice
// bindings in flat slice form. The returned Template's Plan replays only the
// per-window arithmetic. Workloads are not read: a template can be built
// before the first window's loads exist. Compile is pure with respect to in:
// it holds references to the graph and models but never mutates them.
func Compile(in Input) (*Template, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	t := &Template{
		Service:       in.Graph.Service,
		slaThreshold:  in.SLA.Threshold,
		slaPercentile: in.SLA.Percentile,
		structHash:    structHashOf(in.Graph),
	}
	// Distinct microservices in sorted order; index lookup for leaf binding.
	t.mss, t.mult = in.Graph.CallCounts()
	idx := make(map[string]int32, len(t.mss))
	for i, ms := range t.mss {
		idx[ms] = int32(i)
		t.models = append(t.models, in.Models[ms])
		t.shares = append(t.shares, in.Shares[ms])
	}
	t.root = t.reduce(in.Graph.Root, idx)
	t.buildPre(t.root)

	ph, err := t.paramHashOf(in)
	if err != nil {
		return nil, err
	}
	t.paramHash = ph

	t.memo = make([]modelPoint, len(t.mss))
	return t, nil
}

// reduce runs Algorithm 1's reduction bottom-up: a leaf op for the node
// itself, a parallel merge per stage, then a sequential merge of self with
// the stages. A single-element merge collapses to the element.
func (t *Template) reduce(n *graph.Node, idx map[string]int32) int32 {
	self := t.emit(planOp{kind: opLeaf, ms: idx[n.Microservice]})
	if n.IsLeaf() {
		return self
	}
	parts := []int32{self}
	for _, st := range n.Stages {
		stage := make([]int32, len(st))
		for i, c := range st {
			stage[i] = t.reduce(c, idx)
		}
		parts = append(parts, t.merge(opPar, stage))
	}
	return t.merge(opSeq, parts)
}

func (t *Template) emit(op planOp) int32 {
	t.ops = append(t.ops, op)
	return int32(len(t.ops) - 1)
}

func (t *Template) merge(kind opKind, kids []int32) int32 {
	if len(kids) == 1 {
		return kids[0]
	}
	start := int32(len(t.kids))
	t.kids = append(t.kids, kids...)
	return t.emit(planOp{kind: kind, ms: -1, kidStart: start, kidEnd: int32(len(t.kids))})
}

// buildPre records the root-first visit order of the Eq. 5 unwind.
func (t *Template) buildPre(oi int32) {
	t.pre = append(t.pre, oi)
	op := t.ops[oi]
	for _, k := range t.kids[op.kidStart:op.kidEnd] {
		t.buildPre(k)
	}
}

// Plan evaluates the compiled template for one window: workloads γ and the
// cluster utilizations are the only fresh inputs. It is Solve and Allocation
// over a pooled Eval, with the workloads gathered out of the map first.
func (t *Template) Plan(workloads map[string]float64, cpuUtil, memUtil float64) (*Allocation, error) {
	e := evalPool.Get().(*Eval)
	defer evalPool.Put(e)
	return t.plan(e, workloads, cpuUtil, memUtil)
}

// plan is Plan into e, which keeps the final pass's merge coefficients for
// Explain.
func (t *Template) plan(e *Eval, workloads map[string]float64, cpuUtil, memUtil float64) (*Allocation, error) {
	if cap(e.gamma) < len(t.mss) {
		e.gamma = make([]float64, len(t.mss))
	}
	gamma := e.gamma[:len(t.mss)]
	for i, ms := range t.mss {
		// A missing entry reads 0, which Solve reports as a missing workload.
		gamma[i] = workloads[ms]
	}
	if err := t.Solve(e, gamma, cpuUtil, memUtil); err != nil {
		return nil, err
	}
	return t.Allocation(e), nil
}

// Solve runs Latency Target Computation for one window into e: gamma[i] is
// the workload of Microservices()[i] (read, never written), and on success
// e's exported slices hold every microservice's target, raw and integer
// container count and interval. It allocates nothing once e has grown, which
// makes it the whole of a pass that only wants targets (the initial pass of
// the priority scheme).
func (t *Template) Solve(e *Eval, gamma []float64, cpuUtil, memUtil float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.fit(len(t.ops), len(t.mss))

	// The per-window half of validation: workloads, in sorted microservice
	// order, after Compile has checked every model and share.
	for i, g := range gamma[:len(t.mss)] {
		if g <= 0 {
			return fmt.Errorf("scaling: no workload for microservice %s", t.mss[i])
		}
		e.UsedHigh[i] = true
	}
	if cb, mb := math.Float64bits(cpuUtil), math.Float64bits(memUtil); !t.memoOK || cb != t.memoCPU || mb != t.memoMem {
		for i, m := range t.models {
			pt := &t.memo[i]
			pt.knee = m.Knee(cpuUtil, memUtil)
			pt.aHi, pt.bHi = m.Params(true, cpuUtil, memUtil)
			pt.aLo, pt.bLo = m.Params(false, cpuUtil, memUtil)
		}
		t.memoCPU, t.memoMem, t.memoOK = cb, mb, true
	}

	// Pass 1: all-high intervals (§5.3.1).
	if err := t.eval(e, gamma); err != nil {
		return err
	}
	// Flip microservices whose allocated target falls below the latency at
	// the cut-off point, then recompute once with the mixed selection.
	flipped := false
	for i := range t.mss {
		pt := &t.memo[i]
		if e.Targets[i] < pt.aHi*pt.knee+pt.bHi {
			e.UsedHigh[i] = false
			flipped = true
		}
	}
	if flipped {
		return t.eval(e, gamma)
	}
	return nil
}

// Allocation materializes the outcome of a successful Solve on this template
// as name-keyed maps, fresh and never written again by the template.
func (t *Template) Allocation(e *Eval) *Allocation {
	alloc := &Allocation{
		Service:       t.Service,
		Targets:       make(map[string]float64, len(t.mss)),
		ContainersRaw: make(map[string]float64, len(t.mss)),
		Containers:    make(map[string]int, len(t.mss)),
		UsedHigh:      make(map[string]bool, len(t.mss)),
	}
	for i, ms := range t.mss {
		alloc.Targets[ms] = e.Targets[i]
		alloc.ContainersRaw[ms] = e.Raw[i]
		alloc.Containers[ms] = e.Containers[i]
		alloc.UsedHigh[ms] = e.UsedHigh[i]
		// mss is sorted, so the float sum is bit-stable run to run.
		alloc.ResourceUsage += e.Raw[i] * t.shares[i]
	}
	return alloc
}

// eval runs one Latency Target Computation pass over the flat ops: an upward
// post-order sweep computing the Eq. 7-12 merge coefficients, a downward
// pre-order sweep splitting targets by Eq. 5, then the round-up of every
// requirement in sorted order. Every float operation — including summation
// order — and every error's precedence replays the recursive oracle.
func (t *Template) eval(e *Eval, gamma []float64) error {
	clear(e.seen)

	// Upward sweep: kids precede parents in ops, so one forward pass is the
	// bottom-up merge of Eq. 7-12.
	for oi := range t.ops {
		op := &t.ops[oi]
		switch op.kind {
		case opLeaf:
			mi := op.ms
			pt := &t.memo[mi]
			a, b := pt.aHi, pt.bHi
			if !e.UsedHigh[mi] {
				a, b = pt.aLo, pt.bLo
			}
			A := a * gamma[mi]
			share := t.shares[mi]
			e.a[oi], e.b[oi], e.r[oi] = A, b, share
			e.p[oi] = math.Sqrt(A * share)
			e.q[oi] = math.Sqrt(A / share)
		case opSeq:
			var p, q, b float64
			for _, k := range t.kids[op.kidStart:op.kidEnd] {
				p += e.p[k]
				q += e.q[k]
				b += e.b[k]
			}
			e.a[oi], e.b[oi], e.r[oi] = p*q, b, p/q
			e.p[oi], e.q[oi] = p, q
		case opPar:
			var A, b, ar float64
			for _, k := range t.kids[op.kidStart:op.kidEnd] {
				A += e.a[k]
				if e.b[k] > b {
					b = e.b[k]
				}
				ar += e.a[k] * e.r[k]
			}
			r := ar / A
			e.a[oi], e.b[oi], e.r[oi] = A, b, r
			e.p[oi] = math.Sqrt(A * r)
			e.q[oi] = math.Sqrt(A / r)
		}
	}

	// Downward sweep in the recorded pre-order: parents assign child targets
	// before any descendant is visited, so the first infeasibility reported is
	// the first a depth-first unwind meets.
	e.target[t.root] = t.slaThreshold
	for _, oi := range t.pre {
		op := &t.ops[oi]
		target := e.target[oi]
		switch op.kind {
		case opLeaf:
			mi := op.ms
			slack := target - e.b[oi]
			if slack <= 0 {
				return fmt.Errorf("%w: microservice %s target %.3fms <= intercept %.3fms",
					ErrInfeasible, t.mss[mi], target, e.b[oi])
			}
			n := e.a[oi] / slack
			g := gamma[mi]
			if knee := t.memo[mi].knee; knee > 0 {
				limit := knee
				if e.UsedHigh[mi] {
					limit = knee * DomainCapRatio
				}
				if minN := g / limit; n < minN {
					n = minN
				}
			}
			// A microservice occupying several graph positions keeps its
			// tightest target and largest requirement; the first position sets
			// both whatever they are.
			if !e.seen[mi] || target < e.Targets[mi] {
				e.Targets[mi] = target
			}
			if !e.seen[mi] || n > e.Raw[mi] {
				e.Raw[mi] = n
			}
			e.seen[mi] = true
		case opSeq:
			slack := target - e.b[oi]
			if slack <= 0 {
				return fmt.Errorf("%w: service %s: target %.3fms <= path intercepts %.3fms",
					ErrInfeasible, t.Service, target, e.b[oi])
			}
			// Eq. 5's Σp over the kids is the op's own p, summed in the same
			// order on the way up.
			pSum := e.p[oi]
			for _, k := range t.kids[op.kidStart:op.kidEnd] {
				e.target[k] = e.b[k] + e.p[k]/pSum*slack
			}
		case opPar:
			for _, k := range t.kids[op.kidStart:op.kidEnd] {
				e.target[k] = target
			}
		}
	}

	// Round every requirement up in sorted order at the end of each pass, so
	// an unrepresentable count's error comes after this pass's infeasibility
	// checks and before the interval flip.
	for i, ms := range t.mss {
		n, err := containerCount(ms, e.Raw[i])
		if err != nil {
			return err
		}
		e.Containers[i] = n
	}
	return nil
}

// Microservices returns the template's distinct microservices in sorted
// order. The returned slice is owned by the template; callers must not
// mutate it. It is exactly the key set of every map a Plan call returns and
// the index space of Solve's vectors, which lets incremental callers keep
// per-microservice state by position instead of by name.
func (t *Template) Microservices() []string { return t.mss }

// Shares returns the dominant-resource share captured for each of
// Microservices(), owned by the template like that slice.
func (t *Template) Shares() []float64 { return t.shares }

// CallCounts is the compiled graph.CallCounts of the service's graph: the
// sorted microservices and how many graph positions each occupies. Both
// slices are owned by the template; callers must not mutate them.
func (t *Template) CallCounts() (microservices []string, counts []int) { return t.mss, t.mult }

// ParamsMatch reports whether the bindings the template captured at compile
// time — SLA, per-microservice models, and shares — still match in.
// It is the revalidation half of the TemplateCache hit test, exported so an
// incremental planning layer can detect "this service's plan inputs are
// unchanged" without paying for a Plan call. The identity fast path is
// tried first; value-equal replacements (e.g. a rebuilt model map with the
// same coefficients) still match via the probe hash.
func (t *Template) ParamsMatch(in Input) bool {
	if t.paramsUnchanged(in) {
		return true
	}
	ph, err := t.paramHashOf(in)
	return err == nil && ph == t.paramHash
}

// StructMatches reports whether g still has the graph shape the template
// was compiled from.
func (t *Template) StructMatches(g *graph.Graph) bool {
	return structHashOf(g) == t.structHash
}

// Matches reports whether the template is still valid for in: same graph
// shape and matching parameter bindings. Workloads and utilizations are
// per-window inputs and deliberately not part of template validity.
func (t *Template) Matches(in Input) bool {
	return t.StructMatches(in.Graph) && t.ParamsMatch(in)
}

// WindowFingerprint hashes the per-window inputs of an evaluation — the
// workload vector (template order, as Solve takes it) plus the cluster
// utilizations. Two windows with equal fingerprints produce bit-identical
// allocations from an unchanged template, which is what lets an incremental
// planner skip the replan entirely. ok is false when any workload is
// non-positive (such a window cannot be skipped: it must replan so the
// workload error surfaces).
func WindowFingerprint(gamma []float64, cpuUtil, memUtil float64) (fp uint64, ok bool) {
	h := newFNV()
	h.f64(cpuUtil)
	h.f64(memUtil)
	for _, g := range gamma {
		if g <= 0 {
			return 0, false
		}
		h.f64(g)
	}
	return h.sum(), true
}

// probePoints are the (cpuUtil, memUtil) points at which models are sampled
// for the fingerprint. Three points pin the affine utilization response of
// the analytic models; a swapped-in model that agrees at all probes on both
// intervals and the knee is treated as unchanged (best-effort identity —
// model values, not pointers, define the fingerprint).
var probePoints = [3][2]float64{{0, 0}, {0.37, 0.61}, {0.73, 0.29}}

// structHashOf fingerprints the graph shape: service name, node count, and a
// DFS of microservice names and stage widths.
func structHashOf(g *graph.Graph) uint64 {
	h := newFNV()
	if g == nil {
		return h.sum()
	}
	h.str(g.Service)
	h.u64(uint64(g.Len()))
	var walk func(n *graph.Node)
	walk = func(n *graph.Node) {
		h.str(n.Microservice)
		h.u64(uint64(len(n.Stages)))
		for _, st := range n.Stages {
			h.u64(uint64(len(st)))
			for _, c := range st {
				walk(c)
			}
		}
	}
	if g.Root != nil {
		walk(g.Root)
	}
	return h.sum()
}

// paramsUnchanged is the revalidation fast path: true when every binding the
// template captured at compile time is *identical* — same SLA, same share
// values, and the very same model values (interface equality; for
// pointer-typed models that is pointer identity). When anything differs —
// including a rebuilt-but-equivalent model map — the caller falls back to
// the probe-based paramHashOf, so equality by value still avoids a
// recompile. Models are treated as immutable once handed to the planner:
// replace a map entry to change a model (mutating a model in place through a
// retained pointer defeats both checks and is unsupported).
func (t *Template) paramsUnchanged(in Input) (same bool) {
	defer func() {
		// A model with a non-comparable dynamic type panics on ==; treat it
		// as changed and let the probe path decide.
		if recover() != nil {
			same = false
		}
	}()
	if in.SLA.Threshold != t.slaThreshold || in.SLA.Percentile != t.slaPercentile {
		return false
	}
	for i, ms := range t.mss {
		if m, ok := in.Models[ms]; !ok || m != t.models[i] {
			return false
		}
		if in.Shares[ms] != t.shares[i] {
			return false
		}
	}
	return true
}

// paramHashOf fingerprints everything else the compiled coefficients depend
// on: SLA, per-microservice shares, and model probes. Utilizations
// and workloads are per-window inputs, deliberately excluded.
func (t *Template) paramHashOf(in Input) (uint64, error) {
	h := newFNV()
	h.f64(in.SLA.Threshold)
	h.f64(in.SLA.Percentile)
	for _, ms := range t.mss {
		m, ok := in.Models[ms]
		if !ok {
			return 0, fmt.Errorf("scaling: no model for microservice %s", ms)
		}
		if in.Shares[ms] <= 0 {
			return 0, fmt.Errorf("scaling: no resource share for microservice %s", ms)
		}
		// Microservice names are fixed by the structural hash; position in
		// t.mss identifies them here.
		h.f64(in.Shares[ms])
		for _, pt := range probePoints {
			aLo, bLo := m.Params(false, pt[0], pt[1])
			aHi, bHi := m.Params(true, pt[0], pt[1])
			h.f64(aLo)
			h.f64(bLo)
			h.f64(aHi)
			h.f64(bHi)
			h.f64(m.Knee(pt[0], pt[1]))
		}
	}
	return h.sum(), nil
}

// fnv is an inline word-at-a-time hash accumulator (splitmix64-style
// finalizer per word). The fingerprint runs on every Resolve, so it is
// deliberately a couple of multiplies per 8 bytes, not a byte loop — the
// revalidation cost must stay a small fraction of one template evaluation.
type fnv struct{ h uint64 }

func newFNV() *fnv { return &fnv{h: 1469598103934665603} }

func (f *fnv) u64(v uint64) {
	x := f.h ^ v
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	f.h = x
}

func (f *fnv) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fnv) str(s string) {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		f.u64(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	var tail uint64
	for sh := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << sh
		sh += 8
	}
	// Length word doubles as the tail delimiter so "ab","c" != "a","bc".
	f.u64(tail)
	f.u64(uint64(len(s)))
}

func (f *fnv) sum() uint64 { return f.h }

// TemplateCache memoizes Templates per service and revalidates them by
// fingerprint on every Resolve: a structural or parametric change recompiles
// transparently, so callers never observe a stale plan. The cache is safe
// for concurrent use; plans for distinct services never contend.
type TemplateCache struct {
	mu      sync.Mutex
	entries map[string]*Template

	hits          atomic.Uint64
	compiles      atomic.Uint64
	invalidations atomic.Uint64
}

// NewTemplateCache returns an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{entries: make(map[string]*Template)}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts template evaluations served without a compile (AddHits).
	Hits uint64
	// Compiles counts template builds (first sight of a service, or rebuild
	// after invalidation).
	Compiles uint64
	// Invalidations counts fingerprint mismatches that forced a rebuild.
	Invalidations uint64
}

// Stats returns the cumulative counters.
func (c *TemplateCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		Compiles:      c.compiles.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Len reports how many services currently have a compiled template.
func (c *TemplateCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *TemplateCache) get(service string) *Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[service]
}

// Template returns the compiled template currently cached for a service,
// or nil when the service has never been compiled (or the cache is nil).
// The caller is expected to revalidate it with Matches/ParamsMatch before
// trusting it against fresh inputs.
func (c *TemplateCache) Template(service string) *Template {
	if c == nil {
		return nil
	}
	return c.get(service)
}

func (c *TemplateCache) put(t *Template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[t.Service] = t
}

// Resolve returns the service's template, valid for in: the cached one while
// its graph shape and bindings still match, a freshly compiled one (compiled
// is true; Compiles and, for a replaced entry, Invalidations count it)
// otherwise. The caller evaluates the template itself — several times a
// window, revalidating with ParamsMatch in between — and reports those
// evaluations with AddHits.
func (c *TemplateCache) Resolve(in Input) (t *Template, compiled bool, err error) {
	if in.Graph == nil {
		return nil, false, errors.New("scaling: nil graph")
	}
	if t := c.get(in.Graph.Service); t != nil {
		if t.Matches(in) {
			return t, false, nil
		}
		c.invalidations.Add(1)
	}
	t, err = Compile(in)
	if err != nil {
		return nil, false, err
	}
	c.compiles.Add(1)
	c.put(t)
	return t, true, nil
}

// AddHits counts n evaluations of resolved, still-valid templates, so Hits
// means one per evaluation served without a compile.
func (c *TemplateCache) AddHits(n int) { c.hits.Add(uint64(n)) }
