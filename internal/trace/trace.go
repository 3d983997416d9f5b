// Package trace implements the Tracing Coordinator of Erms (§5.1): the
// Jaeger-equivalent span store plus the logic that reconstructs dependency
// graphs from spans and derives per-microservice latency via Eq. 1.
//
// The simulator emits one CallRecord per call of each sampled trace; the
// coordinator turns these into client/server span pairs, rebuilds the call
// tree, classifies sibling calls as parallel or sequential by client-span
// overlap, and computes microservice latency by subtracting downstream
// response times from the local response time.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"erms/internal/graph"
	"erms/internal/sim"
)

// SpanKind distinguishes the two spans recorded per call.
type SpanKind int

// Span kinds, mirroring Jaeger's client/server span pair per call (§5.1).
const (
	Client SpanKind = iota
	Server
)

// Span is one Jaeger-style span.
type Span struct {
	TraceID      int64
	Kind         SpanKind
	Service      string
	Microservice string
	NodeID       int
	ParentNodeID int
	Start        float64
	End          float64
}

// Duration returns the span length in milliseconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Trace is one assembled request trace.
type Trace struct {
	ID      int64
	Service string
	Calls   []sim.CallRecord // ordered by ServerRecv
}

// Coordinator collects sampled call records and answers the queries the rest
// of Erms needs: dependency graphs, microservice latencies, end-to-end
// latencies. It is safe for concurrent ingestion.
//
// The store is one buffer of records in arrival order, scoped by its owner to
// one simulation (Reset before the next): trace IDs restart with every run,
// so records of two runs under one ID would read as one trace. Traces are
// assembled when asked for; Reset keeps the buffer's backing array, so a
// coordinator that is refilled every window allocates nothing once warm.
type Coordinator struct {
	// SampleRate is the tracing sample fraction; workload estimates are
	// scaled by its inverse.
	SampleRate float64

	mu   sync.Mutex
	recs []sim.CallRecord
}

// NewCoordinator creates a coordinator expecting the given sampling rate
// (0 < rate <= 1).
func NewCoordinator(sampleRate float64) *Coordinator {
	if sampleRate <= 0 || sampleRate > 1 {
		panic("trace: sample rate must be in (0, 1]")
	}
	return &Coordinator{SampleRate: sampleRate}
}

// ObserveCall ingests one completed call; it implements sim.SpanObserver.
func (c *Coordinator) ObserveCall(r sim.CallRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// Reset discards all collected records and keeps the buffer for the next fill.
func (c *Coordinator) Reset() {
	c.mu.Lock()
	c.recs = c.recs[:0]
	c.mu.Unlock()
}

// NumTraces returns the number of distinct traces collected.
func (c *Coordinator) NumTraces() int { return len(c.Traces("")) }

// Traces returns assembled traces, optionally filtered by service ("" for
// all), ordered by trace ID. The returned calls are a copy of the store.
func (c *Coordinator) Traces(service string) []Trace {
	c.mu.Lock()
	recs := append([]sim.CallRecord(nil), c.recs...)
	c.mu.Unlock()
	// Stable by trace ID: each trace's calls stay in arrival order, the input
	// order the ServerRecv sort below has always been given.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TraceID < recs[j].TraceID })
	var out []Trace
	for lo, hi := 0, 0; lo < len(recs); lo = hi {
		for hi = lo + 1; hi < len(recs) && recs[hi].TraceID == recs[lo].TraceID; hi++ {
		}
		// A trace belongs to the service of its latest call.
		svc := recs[hi-1].Service
		if service != "" && svc != service {
			continue
		}
		calls := recs[lo:hi:hi]
		sort.Slice(calls, func(i, j int) bool { return calls[i].ServerRecv < calls[j].ServerRecv })
		out = append(out, Trace{ID: recs[lo].TraceID, Service: svc, Calls: calls})
	}
	return out
}

// Spans expands a trace into its Jaeger-style client/server span pairs.
func Spans(t Trace) []Span {
	out := make([]Span, 0, 2*len(t.Calls))
	for _, r := range t.Calls {
		out = append(out,
			Span{TraceID: r.TraceID, Kind: Client, Service: r.Service,
				Microservice: r.ParentMicroservice, NodeID: r.NodeID, ParentNodeID: r.ParentNodeID,
				Start: r.ClientSend, End: r.ClientRecv},
			Span{TraceID: r.TraceID, Kind: Server, Service: r.Service,
				Microservice: r.Microservice, NodeID: r.NodeID, ParentNodeID: r.ParentNodeID,
				Start: r.ServerRecv, End: r.ServerSend},
		)
	}
	return out
}

// groupStages partitions one node's child calls into execution stages using
// the overlap rule of §5.1: a call whose client span overlaps the span of an
// already-grouped call is parallel with it; otherwise it starts a new
// sequential stage. Children must be sorted as produced by childrenOf.
//
// Overlap is half-open — a child joins the current stage iff its ClientSend
// is strictly before the stage's end. The boundary cases are pinned:
//
//   - exactly touching (ClientSend == stageEnd) is SEQUENTIAL: a child
//     issued the instant the previous one returned did not run concurrently
//     with it;
//   - a zero-width client span (ClientSend == ClientRecv) inside a stage is
//     PARALLEL with it, and one starting exactly at stageEnd starts a new
//     stage (a consequence of the half-open rule, not a special case);
//   - a zero-width span opening a stage leaves stageEnd == its ClientSend,
//     so the next child — even at the same instant — is sequential after it.
func groupStages(children []sim.CallRecord) [][]sim.CallRecord {
	var stages [][]sim.CallRecord
	var stageEnd float64
	for _, ch := range children {
		if len(stages) == 0 || ch.ClientSend >= stageEnd {
			stages = append(stages, []sim.CallRecord{ch})
			stageEnd = ch.ClientRecv
			continue
		}
		last := len(stages) - 1
		stages[last] = append(stages[last], ch)
		if ch.ClientRecv > stageEnd {
			stageEnd = ch.ClientRecv
		}
	}
	return stages
}

// childrenOf returns t's calls whose parent is the given node, sorted by
// client send time with ties broken by client recv then node ID. The full
// key matters: sorting on ClientSend alone with a non-stable sort made the
// stage grouping of equal-send children (e.g. a zero-width span and a wider
// sibling issued at the same instant) depend on input order, so the same
// trace could classify as parallel or sequential run to run. With the
// pinned order the shorter span sorts first and groupStages is
// deterministic.
func childrenOf(t Trace, nodeID int) []sim.CallRecord {
	var out []sim.CallRecord
	for _, r := range t.Calls {
		if r.ParentNodeID == nodeID {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ClientSend != b.ClientSend {
			return a.ClientSend < b.ClientSend
		}
		if a.ClientRecv != b.ClientRecv {
			return a.ClientRecv < b.ClientRecv
		}
		return a.NodeID < b.NodeID
	})
	return out
}

// rootOf returns the entering call of a trace.
func rootOf(t Trace) (sim.CallRecord, error) {
	for _, r := range t.Calls {
		if r.ParentNodeID == -1 {
			return r, nil
		}
	}
	return sim.CallRecord{}, fmt.Errorf("trace %d has no root call", t.ID)
}

// ExtractGraph reconstructs the dependency graph of a service from all of
// its collected traces: each trace yields one call-tree variant (with
// parallel/sequential classification from span overlap), and variants are
// merged into the complete graph (§5.1, §7).
func (c *Coordinator) ExtractGraph(service string) (*graph.Graph, error) {
	traces := c.Traces(service)
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: no traces for service %s", service)
	}
	var variants []*graph.Graph
	for _, t := range traces {
		g, err := graphFromTrace(t)
		if err != nil {
			return nil, err
		}
		variants = append(variants, g)
	}
	return graph.Merge(service, variants...)
}

func graphFromTrace(t Trace) (*graph.Graph, error) {
	root, err := rootOf(t)
	if err != nil {
		return nil, err
	}
	g := graph.New(t.Service, root.Microservice)
	var build func(dst *graph.Node, nodeID int)
	build = func(dst *graph.Node, nodeID int) {
		for _, stage := range groupStages(childrenOf(t, nodeID)) {
			names := make([]string, len(stage))
			for i, r := range stage {
				names[i] = r.Microservice
			}
			created := g.AddStage(dst, names...)
			for i, r := range stage {
				build(created[i], r.NodeID)
			}
		}
	}
	build(g.Root, root.NodeID)
	return g, nil
}

// LatencySample is one derived microservice latency observation.
type LatencySample struct {
	Service      string
	Microservice string
	// At is the server-receive timestamp in milliseconds.
	At float64
	// LatencyMs is the Eq. 1 microservice latency: local response time minus
	// downstream response times (per-stage maxima for parallel calls).
	LatencyMs float64
}

// MicroserviceLatencies derives per-call microservice latencies for every
// node of every collected trace of the given service ("" for all services),
// implementing Eq. 1 and its sequential/parallel generalizations.
func (c *Coordinator) MicroserviceLatencies(service string) []LatencySample {
	var out []LatencySample
	for _, t := range c.Traces(service) {
		for _, r := range t.Calls {
			own := r.ServerSend - r.ServerRecv
			for _, stage := range groupStages(childrenOf(t, r.NodeID)) {
				var maxResp float64
				for _, ch := range stage {
					if d := ch.ClientRecv - ch.ClientSend; d > maxResp {
						maxResp = d
					}
				}
				own -= maxResp
			}
			out = append(out, LatencySample{
				Service:      t.Service,
				Microservice: r.Microservice,
				At:           r.ServerRecv,
				LatencyMs:    own,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// EndToEnd returns the end-to-end latencies (root client span durations) of
// all sampled requests of a service.
func (c *Coordinator) EndToEnd(service string) []float64 {
	var out []float64
	for _, t := range c.Traces(service) {
		if root, err := rootOf(t); err == nil {
			out = append(out, root.ClientRecv-root.ClientSend)
		}
	}
	return out
}

// WorkloadEstimate estimates the total request rate (requests/minute) seen
// at each microservice of a service over the observation window, scaling the
// sampled call counts by the inverse sampling rate.
func (c *Coordinator) WorkloadEstimate(service string, windowMin float64) (map[string]float64, error) {
	if windowMin <= 0 {
		return nil, errors.New("trace: non-positive window")
	}
	counts := make(map[string]int)
	for _, t := range c.Traces(service) {
		for _, r := range t.Calls {
			counts[r.Microservice]++
		}
	}
	out := make(map[string]float64, len(counts))
	for ms, n := range counts {
		out[ms] = float64(n) / c.SampleRate / windowMin
	}
	return out, nil
}
