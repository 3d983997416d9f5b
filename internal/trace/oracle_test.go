package trace

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// mapCoordinator is the coordinator as it was before the flat buffer: records
// filed per trace ID as they arrive, the service of a trace taken from its
// latest record, and every query going through Traces. It is kept verbatim
// (minus the retention cap, which no caller set) as the oracle the buffer is
// compared against.
type mapCoordinator struct {
	SampleRate float64
	byTrace    map[int64][]sim.CallRecord
	svcOf      map[int64]string
}

func newMapCoordinator(sampleRate float64) *mapCoordinator {
	return &mapCoordinator{
		SampleRate: sampleRate,
		byTrace:    make(map[int64][]sim.CallRecord),
		svcOf:      make(map[int64]string),
	}
}

func (c *mapCoordinator) ObserveCall(r sim.CallRecord) {
	c.byTrace[r.TraceID] = append(c.byTrace[r.TraceID], r)
	c.svcOf[r.TraceID] = r.Service
}

func (c *mapCoordinator) Traces(service string) []Trace {
	var out []Trace
	for id, calls := range c.byTrace {
		if service != "" && c.svcOf[id] != service {
			continue
		}
		sorted := make([]sim.CallRecord, len(calls))
		copy(sorted, calls)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ServerRecv < sorted[j].ServerRecv })
		out = append(out, Trace{ID: id, Service: c.svcOf[id], Calls: sorted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *mapCoordinator) ExtractGraph(service string) (*graph.Graph, error) {
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

func (c *mapCoordinator) MicroserviceLatencies(service string) []LatencySample {
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

func (c *mapCoordinator) MinuteAggregates(containersOf func(ms string) int) []MinuteAggregate {
	type key struct {
		minute int
		ms     string
	}
	lats := make(map[key][]float64)
	for _, s := range c.MicroserviceLatencies("") {
		k := key{minute: int(s.At / 60_000), ms: s.Microservice}
		lats[k] = append(lats[k], s.LatencyMs)
	}
	out := make([]MinuteAggregate, 0, len(lats))
	for k, ls := range lats {
		n := containersOf(k.ms)
		if n < 1 {
			n = 1
		}
		calls := float64(len(ls)) / c.SampleRate
		out = append(out, MinuteAggregate{
			Minute:            k.minute,
			Microservice:      k.ms,
			PerContainerCalls: calls / float64(n),
			TailMs:            stats.P95(ls),
			Calls:             int(math.Round(calls)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Minute != out[j].Minute {
			return out[i].Minute < out[j].Minute
		}
		return out[i].Microservice < out[j].Microservice
	})
	return out
}

// tee feeds one record stream to the coordinator under test and the oracle.
type tee struct {
	c      *Coordinator
	oracle *mapCoordinator
}

func newTee(sampleRate float64) tee {
	return tee{NewCoordinator(sampleRate), newMapCoordinator(sampleRate)}
}

func (tt tee) ObserveCall(r sim.CallRecord) {
	tt.c.ObserveCall(r)
	tt.oracle.ObserveCall(r)
}

// check compares every query that reads the store, for all services at once
// and for each named service (plus one the store has never seen).
func (tt tee) check(t *testing.T, services ...string) {
	t.Helper()
	for _, svc := range append([]string{"", "no-such-service"}, services...) {
		got, want := tt.c.Traces(svc), tt.oracle.Traces(svc)
		if len(got) != len(want) {
			t.Fatalf("Traces(%q): %d traces, oracle %d", svc, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Service != w.Service || len(g.Calls) != len(w.Calls) {
				t.Fatalf("Traces(%q)[%d]: trace %d of %s with %d calls, oracle trace %d of %s with %d",
					svc, i, g.ID, g.Service, len(g.Calls), w.ID, w.Service, len(w.Calls))
			}
			for k := range w.Calls {
				if g.Calls[k] != w.Calls[k] {
					t.Fatalf("Traces(%q)[%d] (trace %d) call %d:\n got %+v\nwant %+v", svc, i, w.ID, k, g.Calls[k], w.Calls[k])
				}
			}
		}
		if got, want := tt.c.MicroserviceLatencies(svc), tt.oracle.MicroserviceLatencies(svc); !reflect.DeepEqual(got, want) {
			t.Fatalf("MicroserviceLatencies(%q) differs from the oracle (%d vs %d samples)", svc, len(got), len(want))
		}
		if svc == "" {
			continue
		}
		gg, gerr := tt.c.ExtractGraph(svc)
		wg, werr := tt.oracle.ExtractGraph(svc)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("ExtractGraph(%q): err %v, oracle %v", svc, gerr, werr)
		}
		if gerr == nil && gg.DOT() != wg.DOT() {
			t.Fatalf("ExtractGraph(%q):\n got %s\nwant %s", svc, gg.DOT(), wg.DOT())
		}
	}
	two := func(string) int { return 2 }
	if got, want := tt.c.MinuteAggregates(two), tt.oracle.MinuteAggregates(two); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinuteAggregates differs from the oracle (%d vs %d rows)", len(got), len(want))
	}
	if got, want := numTraces(tt.c), len(tt.oracle.byTrace); got != want {
		t.Fatalf("NumTraces = %d, oracle %d", got, want)
	}
}

// TestTracesMatchMapStoreOracle: the flat buffer answers every query exactly
// as the per-trace map store did — same traces, same calls in the same order
// (ties of the non-stable ServerRecv sort included), same derived samples,
// aggregates and graphs — on real simulator output and on the record orders
// the simulator does not produce by itself.
func TestTracesMatchMapStoreOracle(t *testing.T) {
	t.Run("pipeline run", func(t *testing.T) {
		// The run of TestEndToEndPipelineAgainstSimulator.
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
		tt := newTee(0.1)
		rt, err := sim.NewRuntime(sim.Config{
			Seed:    11,
			Cluster: cl,
			Profiles: map[string]sim.ServiceProfile{
				"nginx": {BaseMs: 0.5}, "text": {BaseMs: 3, CV: 0.3}, "media": {BaseMs: 4, CV: 0.3},
				"storage": {BaseMs: 2, CV: 0.3}, "cache": {BaseMs: 1, CV: 0.3},
			},
			Graphs:         []*graph.Graph{g},
			Patterns:       map[string]workload.Pattern{"social": workload.Static{Rate: 6000}},
			DurationMin:    2,
			SampleRate:     0.1,
			NetworkDelayMs: 0.05,
			Observer:       tt,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		if n := numTraces(tt.c); n < 500 {
			t.Fatalf("only %d traces sampled", n)
		}
		tt.check(t, "social")
	})

	t.Run("random topologies", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			tt := newTee(1)
			_, cfg := randomTopology(t, seed, tt)
			rt, err := sim.NewRuntime(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt.Run()
			tt.check(t, "svc")
		}
	})

	t.Run("partitioned replay", func(t *testing.T) {
		// Six services in three sharing groups {0,3} {1,4} {2,5}: the replay
		// delivers group by group, so neither services nor trace IDs (offset
		// by group<<40, restarting at 1 in each) arrive in order.
		cl := cluster.New(4, cluster.PaperHost)
		profiles := make(map[string]sim.ServiceProfile)
		patterns := make(map[string]workload.Pattern)
		var graphs []*graph.Graph
		var services []string
		place := func(ms string) {
			profiles[ms] = sim.ServiceProfile{BaseMs: 1, CV: 0.3}
			for k := 0; k < 2; k++ {
				if _, err := cl.Place(cluster.PaperContainer(ms), (len(profiles)+k)%4); err != nil {
					t.Fatal(err)
				}
			}
		}
		for gi := 0; gi < 3; gi++ {
			place(fmt.Sprintf("shared-%d", gi))
		}
		for i := 0; i < 6; i++ {
			svc, entry := fmt.Sprintf("svc-%d", i), fmt.Sprintf("entry-%d", i)
			place(entry)
			g := graph.New(svc, entry)
			g.AddStage(g.Root, fmt.Sprintf("shared-%d", i%3))
			graphs = append(graphs, g)
			services = append(services, svc)
			patterns[svc] = workload.Static{Rate: 1200}
		}
		tt := newTee(0.5)
		if _, err := sim.RunPartitioned(sim.Config{
			Seed: 5, Cluster: cl, Profiles: profiles, Graphs: graphs, Patterns: patterns,
			DurationMin: 1, SampleRate: 0.5, NetworkDelayMs: 0.05, Observer: tt,
		}, sim.PartitionOpts{}); err != nil {
			t.Fatal(err)
		}
		groups := make(map[int64]bool)
		for _, tr := range tt.c.Traces("") {
			groups[tr.ID>>40] = true
		}
		if len(groups) != 3 {
			t.Fatalf("replay covered %d groups, want 3", len(groups))
		}
		tt.check(t, services...)
	})

	t.Run("equal ServerRecv", func(t *testing.T) {
		// Siblings received at the same instant, in traces long enough that
		// the ServerRecv sort is past its insertion-sort threshold and does
		// reorder ties: the order out depends on the order in, which must be
		// each trace's arrival order. Traces are interleaved record by record
		// and the last one changes service midway.
		const traces, fanout = 5, 40
		r := stats.NewRNG(3)
		tt := newTee(1)
		for k := 0; k <= fanout; k++ {
			for id := int64(traces); id >= 1; id-- {
				svc := "svc"
				if id == traces && k > fanout/2 {
					svc = "late"
				}
				if k == fanout {
					tt.ObserveCall(call(id, svc, "", "T", 0, -1, 0, 0, 100, 100))
					continue
				}
				recv := float64(1 + r.Intn(4))
				tt.ObserveCall(call(id, svc, "T", fmt.Sprintf("m%d", k), k+1, 0, 1, recv, recv+5, recv+6))
			}
		}
		tt.check(t, "svc", "late")
	})
}

// TestResetKeepsBuffer: a coordinator refilled to the size it has already
// held allocates nothing — Reset hands the next window the same array.
func TestResetKeepsBuffer(t *testing.T) {
	var recs []sim.CallRecord
	for i := 0; i < 500; i++ {
		recs = append(recs, fig1Trace(int64(i+1))...)
	}
	c := NewCoordinator(1)
	refill := func() {
		c.Reset()
		for _, r := range recs {
			c.ObserveCall(r)
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(10, refill); allocs != 0 {
		t.Fatalf("a second fill of the same size allocates %.1f times, want 0", allocs)
	}
	if n := numTraces(c); n != 500 {
		t.Fatalf("refilled coordinator holds %d traces, want 500", n)
	}
}

// TestObserveCallWarmZeroAlloc: ingesting a span into a warm buffer is an
// append and nothing else.
func TestObserveCallWarmZeroAlloc(t *testing.T) {
	c := NewCoordinator(1)
	fillCoordinator(c, 500)
	c.Reset()
	rec := fig1Trace(1)[0]
	if allocs := testing.AllocsPerRun(1000, func() { c.ObserveCall(rec) }); allocs != 0 {
		t.Fatalf("a warm ObserveCall allocates %.1f times, want 0", allocs)
	}
}
