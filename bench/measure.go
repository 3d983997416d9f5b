package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"erms/internal/graph"
	"erms/internal/kube"
	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/scaling"
	"erms/internal/stats"
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's result plus what the harness prints above it.
type outcome struct {
	result
	// Digest covers every WindowReport of the first cycle (replicas per
	// microservice on the control-plane-only workload). It depends only on
	// the spec and the seed, never on speed or on tracing.
	Digest string
	// Problems lists the correctness checks that failed.
	Problems []string
	// Windows is the number of timed windows.
	Windows int
	// Layers is the traced run's self-time table, nil on untraced runs.
	Layers []layerRow
}

func (o *outcome) note(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

type layerRow struct {
	Name  string
	Ms    float64 // mean per timed window
	Share float64 // of the traced window
}

// memDelta runs f and returns the heap allocations it made.
func memDelta(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median of a non-empty sample.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digester hashes what the windows decided.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(l *loop, out windowOut) {
	if out.Report != nil {
		// Everything but PhaseMs, the only wall-clock field. Printed, not
		// marshalled: fmt sorts map keys and writes floats in their shortest
		// exact form like JSON does, and unlike JSON it accepts the NaN tail
		// latency of a service whose every request failed.
		rep := *out.Report
		rep.PhaseMs = nil
		fmt.Fprintf(d.h, "%+v\n", rep)
		return
	}
	for _, ms := range l.ctrl.Orch.Deployments() {
		fmt.Fprintf(d.h, "%s=%d\n", ms, l.ctrl.Orch.Replicas(ms))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// quality accumulates the decision-quality metrics over the first cycle.
type quality struct {
	windows    int
	containers float64
	violation  float64 // sum over windows of the mean per-service violation rate
	p95Ratio   float64 // sum over windows of the mean per-service P95 / SLA
	p95Windows int
	unhealthy  int
	problems   []string
}

func (q *quality) note(format string, args ...any) {
	q.problems = append(q.problems, fmt.Sprintf(format, args...))
}

// observe folds one window in and runs the per-window correctness checks.
func (q *quality) observe(l *loop, w int, out windowOut, err error) {
	q.windows++
	if err != nil {
		// An errored window misses every SLA.
		q.unhealthy++
		q.violation++
		return
	}
	app, orch := l.ctrl.App, l.ctrl.Orch
	if rep := out.Report; rep != nil {
		q.containers += float64(rep.Containers)
		if rep.Outage || rep.Degraded {
			q.unhealthy++
		}
		if !rep.Outage && rep.Containers != orch.TotalReplicas() {
			q.note("window %d: report has %d containers, orchestrator %d replicas", w, rep.Containers, orch.TotalReplicas())
		}
		v := 0.0
		for _, svc := range app.Services() {
			v += rep.Violations[svc]
		}
		q.violation += v / float64(len(app.Graphs))
		// A service whose every request failed completed nothing and has no
		// tail latency; its violation rate of 1 already counts it.
		r, served := 0.0, 0
		for _, svc := range app.Services() {
			tail, ok := rep.TailLatency[svc]
			if !ok || rep.ErrorRate[svc] == 1 {
				continue
			}
			if math.IsNaN(tail) || math.IsInf(tail, 0) || tail < 0 {
				q.note("window %d: tail latency of %s is %v", w, svc, tail)
				continue
			}
			r += tail / app.SLAs[svc].Threshold
			served++
		}
		if served > 0 {
			q.p95Ratio += r / float64(served)
			q.p95Windows++
		}
		return
	}
	// Nothing is simulated: the quality of a plan is whether its latency
	// targets, summed along each service's critical path, fit the SLA.
	q.containers += float64(orch.TotalReplicas())
	if got, want := orch.TotalReplicas(), out.Plan.TotalContainers(); got != want {
		q.note("window %d: plan has %d containers, orchestrator %d replicas", w, want, got)
	}
	miss, r := 0, 0.0
	for _, g := range app.Graphs {
		alloc := out.Plan.PerService[g.Service]
		e2e := g.EndToEnd(func(n *graph.Node) float64 { return alloc.Targets[n.Microservice] })
		ratio := e2e / app.SLAs[g.Service].Threshold
		if math.IsNaN(ratio) || ratio < 0 {
			q.note("window %d: planned latency of %s is %v", w, g.Service, e2e)
		}
		if ratio > 1+1e-9 {
			miss++
		}
		r += ratio
	}
	q.violation += float64(miss) / float64(len(app.Graphs))
	q.p95Ratio += r / float64(len(app.Graphs))
	q.p95Windows++
}

// kubeCounts sums the orchestrator's events over the timed windows.
type kubeCounts struct {
	on                             bool
	ups, downs, replicas, repaired float64
}

func (k *kubeCounts) watch(e kube.Event) {
	if !k.on {
		return
	}
	switch e.Type {
	case kube.EventCreate, kube.EventScaleUp:
		k.ups++
		k.replicas += math.Abs(float64(e.Delta))
	case kube.EventScaleDown, kube.EventDelete:
		k.downs++
		k.replicas += math.Abs(float64(e.Delta))
	case kube.EventRepair:
		k.repaired += float64(e.Delta)
	}
}

// setUp builds the workload s.SetupReps times, warm-up windows included, and
// returns the last instance with its recorder (nil on untraced runs) and the
// time each repetition took. Every repetition must reproduce the first one's
// warm-up windows exactly: the in-process determinism check.
func setUp(s spec, seed uint64, tr *tracer, out *outcome) (*loop, *obs.Recorder, []float64, error) {
	var (
		l      *loop
		rec    *obs.Recorder
		took   []float64
		digest string
	)
	for rep := 0; rep < s.SetupReps; rep++ {
		l = nil
		runtime.GC() // the previous instance must not count towards peak RSS twice
		if tr != nil {
			rec = obs.New(nil)
		}
		t0 := time.Now()
		root := tr.start(spanSetup, -1)
		var err error
		if l, err = s.build(s, seed, rec, tr); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := newDigester()
		for w := 0; w < warmupWindows; w++ {
			wo, err := runWindow(l, w, tr)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up window %d: %w", w, err)
			}
			d.add(l, wo)
		}
		root.end()
		took = append(took, time.Since(t0).Seconds())
		if rep == 0 {
			digest = d.sum()
		} else if d.sum() != digest {
			out.note("set-up %d decided differently from set-up 0 on the same seed", rep)
		}
	}
	return l, rec, took, nil
}

// timed is what the timed windows of a run add up to.
type timed struct {
	durMs []float64 // wall time of each window
	// bestMs is, per cycle position, the fastest of its windows. The windows
	// at one position do the same work in every cycle, and what slows one of
	// them down on a shared machine is noise, which only ever adds.
	bestMs         []float64
	mallocs, bytes uint64
	// Sums over the windows of what each handed back.
	offered, faults, moves, retries, swaps float64
	// heapLiveMB is the live heap after the first cycle.
	heapLiveMB float64
	// next is the index of the window after the last timed one.
	next int
}

// minCycles is how many cycles a run times at least: two, so that every
// position has a second reading.
const minCycles = 2

// timeWindows runs whole cycles of windows until they have taken the given
// number of seconds, at least minCycles. Everything between two windows
// (digest, checks, memory statistics) is untimed. The first cycle feeds the
// digest and the decision-quality metrics, so that neither depends on how
// many cycles fit.
func timeWindows(l *loop, s spec, seconds float64, tr *tracer, out *outcome) (*timed, *quality) {
	t := &timed{next: warmupWindows}
	q := &quality{}
	dig := newDigester()
	for cycle := 0; cycle < minCycles || sum(t.durMs) < seconds*1000; cycle++ {
		for i := 0; i < s.Cycle; i, t.next = i+1, t.next+1 {
			var (
				wo  windowOut
				err error
				ms  float64
			)
			m, b := memDelta(func() {
				t0 := time.Now()
				wo, err = runWindow(l, t.next, tr)
				ms = float64(time.Since(t0)) / 1e6
			})
			t.durMs = append(t.durMs, ms)
			if cycle == 0 {
				t.bestMs = append(t.bestMs, ms)
			} else {
				t.bestMs[i] = math.Min(t.bestMs[i], ms)
			}
			t.mallocs, t.bytes = t.mallocs+m, t.bytes+b
			out.Attempted++
			if err != nil {
				out.Failed++
				out.note("window %d: %v", t.next, err)
			}
			t.offered += wo.Offered
			t.faults += float64(wo.Faults)
			t.moves += float64(wo.Moves)
			if wo.Report != nil {
				t.retries += float64(wo.Report.Retries)
				t.swaps += float64(wo.Report.ModelSwaps)
			}
			if cycle == 0 {
				q.observe(l, t.next, wo, err)
				if err == nil {
					dig.add(l, wo)
				}
			}
		}
		if cycle == 0 {
			// Live heap with everything the loop retains still reachable:
			// grows if samples, spans or history accumulate per window.
			var m runtime.MemStats
			runtime.GC()
			runtime.GC() // the second pass frees what the first one's sweep and pool clearing released
			runtime.ReadMemStats(&m)
			t.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
		}
	}
	runtime.KeepAlive(l)
	out.Windows = len(t.durMs)
	out.Digest = dig.sum()
	out.Problems = append(out.Problems, q.problems...)
	return t, q
}

// run sets a workload up, times whole cycles of control windows for at least
// the given number of seconds, and returns the metrics of the chosen mode.
func run(s spec, seed uint64, seconds float64, traced bool, traceOut string) (*outcome, error) {
	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer(s.Name)
		defs = perLayer
	}
	em := newEmitter(defs)
	out := &outcome{}

	l, rec, setupS, err := setUp(s, seed, tr, out)
	if err != nil {
		return nil, err
	}
	kc := &kubeCounts{}
	if traced {
		l.ctrl.Orch.Watch(kc.watch)
	}
	before := counters{rec.Counters(), l.ctrl.Planner.Stats(), l.ctrl.PlanCache.Stats()}
	kc.on = true
	t, q := timeWindows(l, s, seconds, tr, out)
	kc.on = false
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	n := float64(len(t.durMs))
	cycles := n / float64(s.Cycle)
	if !traced {
		em.set("window_ms_mean", sum(t.bestMs)/float64(len(t.bestMs)))
		em.set("window_ms_p50", median(t.bestMs))
		em.set("req_per_s", t.offered/cycles/(sum(t.bestMs)/1000))
		em.set("allocs_per_window", float64(t.mallocs)/n)
		em.set("alloc_mb_per_window", float64(t.bytes)/n/(1<<20))
		em.set("heap_live_mb", t.heapLiveMB)
		em.set("peak_rss_mb", rss)
		em.set("containers_mean", q.containers/float64(q.windows))
		em.set("sla_attainment", 1-q.violation/float64(q.windows))
		em.set("p95_over_sla_mean", q.p95Ratio/math.Max(1, float64(q.p95Windows)))
		em.set("healthy_window_share", 1-float64(q.unhealthy)/float64(q.windows))
		em.set("setup_s", median(setupS))
	} else {
		after := counters{rec.Counters(), l.ctrl.Planner.Stats(), l.ctrl.PlanCache.Stats()}
		layerMetrics(em, out, t, tr, kc, before, after)
		moves, problems, err := probe(l, s, t.next, tr, em)
		if err != nil {
			return nil, fmt.Errorf("probe window: %w", err)
		}
		out.Problems = append(out.Problems, problems...)
		if s.Simulates {
			// Step does not return what Rebalance moved; the probe window's
			// direct call stands in.
			em.set("provision.moves", moves)
		} else {
			em.set("provision.moves", t.moves/n)
		}
		if traceOut != "" {
			if err := tr.dump(traceOut); err != nil {
				return nil, err
			}
		}
	}

	for _, name := range em.missing() {
		out.note("metric %s was not emitted", name)
	}
	out.Problems = append(out.Problems, em.errs...)
	out.Metrics = em.metrics
	out.Correct = len(out.Problems) == 0
	return out, nil
}

// counters is a snapshot of the program's own cumulative counters.
type counters struct {
	obs     map[string]float64
	planner multiplex.IncrementalStats
	cache   scaling.CacheStats
}

// layerMetrics sets the per-layer metrics the timed windows give: self times
// from the spans, counts from the counter deltas, each a mean per window.
func layerMetrics(em *emitter, out *outcome, t *timed, tr *tracer, kc *kubeCounts, before, after counters) {
	n := float64(len(t.durMs))
	windowMs := sum(t.durMs) / n
	self := tr.selfTimes(spanWindow)
	per := func(name string) float64 { return self[name] / n }
	out.Layers = []layerRow{
		{Name: "kube.repair_ms", Ms: per(obs.PhaseRepair)},
		{Name: "core.plan_ms", Ms: per(obs.PhasePlan)},
		{Name: "core.apply_ms", Ms: per(obs.PhaseApply)},
		{Name: "provision.rebalance_ms", Ms: per(obs.PhaseRebalance)},
		{Name: "core.evaluate_ms", Ms: per(obs.PhaseEvaluate)},
		{Name: "chaos.window_ms", Ms: per(spanChaosBegin) + per(spanChaosEnd)},
		{Name: "core.step_self_ms", Ms: per(spanStep)},
		{Name: "bench.window_self_ms", Ms: per(spanWindow)},
	}
	total := 0.0
	for i := range out.Layers {
		row := &out.Layers[i]
		em.set(row.Name, row.Ms)
		row.Share = row.Ms / windowMs
		total += row.Ms
		// The self times sum to the window whatever the spans say; a parent
		// shorter than its children (PhaseMs exceeding the Step span that
		// encloses them) shows as a negative self time instead.
		if row.Share < -0.01 {
			out.note("%s is %.3f ms per window: its spans are shorter than their children", row.Name, row.Ms)
		}
	}
	if share := total / windowMs; share < 0.98 || share > 1.02 {
		out.note("layer shares sum to %.1f%% of the traced window", 100*share)
	}
	// The same estimate window_ms_mean is of the untraced run, so that the
	// two compare; the shares above are of the mean over every window.
	em.set("obs.traced_window_ms", sum(t.bestMs)/float64(len(t.bestMs)))

	em.set("kube.repaired", kc.repaired/n)
	em.set("kube.scale_ups", kc.ups/n)
	em.set("kube.scale_downs", kc.downs/n)
	em.set("kube.replicas_delta", kc.replicas/n)
	em.set("core.retries", t.retries/n)
	em.set("drift.model_swaps", t.swaps/n)
	em.set("chaos.faults", t.faults/n)

	ps, ps0 := after.planner, before.planner
	dirty, skipped := float64(ps.DirtyServices-ps0.DirtyServices), float64(ps.SkippedServices-ps0.SkippedServices)
	em.set("multiplex.dirty_services", dirty/n)
	em.set("multiplex.skipped_services", skipped/n)
	em.set("multiplex.skip_ratio", ratio(skipped, dirty+skipped))
	em.set("multiplex.shard_runs", float64(ps.ShardRuns-ps0.ShardRuns)/n)
	em.set("scaling.template_hits", float64(after.cache.Hits-before.cache.Hits)/n)
	em.set("scaling.template_compiles", float64(after.cache.Compiles-before.cache.Compiles)/n)
	em.set("scaling.template_invalidations", float64(after.cache.Invalidations-before.cache.Invalidations)/n)

	delta := func(name string) float64 { return after.obs[name] - before.obs[name] }
	events := delta(obs.CtrSimEvents)
	em.set("sim.events", events/n)
	em.set("sim.jobs_allocated", delta(obs.CtrSimJobsAlloc)/n)
	em.set("sim.heap_peak", after.obs[obs.GaugeSimHeapPeak])
	em.set("sim.ns_per_event", ratio(self[obs.PhaseEvaluate]*1e6, events))
	em.set("sim.data_attempts", delta(obs.CtrDataAttempts)/n)
	em.set("sim.data_retries", delta(obs.CtrDataRetries)/n)
	em.set("sim.data_timeouts", delta(obs.CtrDataTimeouts)/n)
	em.set("sim.data_shed", delta(obs.CtrDataShed)/n)
	em.set("sim.breaker_opens", delta(obs.CtrDataBreakerOpens)/n)
	em.set("sim.retry_ratio", ratio(delta(obs.CtrDataRetries), delta(obs.CtrDataAttempts)))

	em.set("apps.build_ms", median(tr.durations(spanAppBuild)))
	em.set("core.new_ms", median(tr.durations(spanCoreNew)))
	em.set("profiling.analytic_models_ms", median(tr.durations(spanModels)))
	em.set("core.cold_window_ms", median(coldWindows(tr)))
}

// runWindow runs one control window under its root span.
func runWindow(l *loop, w int, tr *tracer) (windowOut, error) {
	sp := tr.start(spanWindow, w)
	wo, err := l.window(w, tr)
	sp.end()
	if wo.Report != nil {
		tr.addPhases(w, wo.Report.PhaseMs)
	}
	return wo, err
}

// coldWindows returns the duration of the first warm-up window of every
// set-up repetition.
func coldWindows(tr *tracer) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == spanWindow && s.Window == 0 {
			out = append(out, s.ms())
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
