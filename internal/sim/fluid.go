package sim

import (
	"math"

	"erms/internal/queueing"
)

// The hybrid fluid/discrete fast path (PartitionOpts.Mode = SimHybrid).
//
// The fidelity contract: each simulated minute, every microservice is
// classified as fluid or exact. A microservice is fluid when its containers'
// M/M/c utilization (arrival rate from the pre-materialized arrival lists,
// service rate from the profile inflated by the current host interference)
// is at or below fluidRhoMax — i.e. the operating point sits well below the
// latency knee, where the analytic queueing model is trustworthy (the same
// observation Erms' piecewise-linear latency models rest on). Fluid calls
// draw their latency from the Erlang-C waiting-time distribution plus the
// profiled service-time distribution instead of queueing per-request events;
// whole fluid subtrees collapse to a single completion event. Near-knee
// microservices, microservices targeted by failure injection, closed-loop
// services' microservices, and every run with Resilience enabled stay exact.
//
// Known approximations, gated by TestHybridFidelity: fluid calls
// ignore priority-queue ordering (δ-policy) and cross-minute queue carryover,
// per-minute call counts are credited at the subtree root's arrival instant,
// and fluid MinuteSamples synthesize TailMs/MeanMs from the model rather
// than from per-request observations.
const (
	// fluidRhoMax is the per-container M/M/c utilization at or below which a
	// microservice is served from the analytic model: safely below the knee
	// for the thread counts this repo simulates.
	fluidRhoMax = 0.6
	// fluidTailQuantile is the quantile synthesized into MinuteSample.TailMs
	// for fluid minutes, matching the exact engine's reservoir quantile. It
	// is a float64 so that 2q−1 rounds as it does at run time.
	fluidTailQuantile float64 = 0.95
	// fluidWaitBoundMs caps analytic waiting-time draws (the exponential
	// branch of the Erlang-C wait is unbounded).
	fluidWaitBoundMs = 10_000
)

// fluidModel is the per-microservice analytic model for the current minute.
type fluidModel struct {
	erlangC   float64 // P(wait > 0)
	exRate    float64 // conditional wait rate cμ−λ, per ms
	waitBound float64
	inflation float64 // interference factor at the last refresh
	meanMs    float64 // synthesized MinuteSample.MeanMs
	tailMs    float64 // synthesized MinuteSample.TailMs
	rho       float64
}

// fluidState is the runtime of the fluid fast path. It is rebuilt every
// simulated minute at the flush boundary (refresh), inside the engine's
// single-threaded event loop, so all state is unsynchronized.
type fluidState struct {
	rt       *Runtime
	minutes  int
	disabled bool // Resilience enabled: everything stays exact

	// Static after prepare(). The per-minute classification itself lives on
	// the resolved states the calls read: msState.fluid/model/fluidCalls and
	// callNode.subtree.
	pinned        map[string]bool      // always-exact microservices
	arrCounts     map[string][]int     // service -> arrivals per minute
	msCallsPerMin map[string][]float64 // ms -> offered calls per minute

	fluidCM int // container-minutes served from the analytic model
	exactCM int // container-minutes simulated discretely
}

func newFluidState(rt *Runtime) *fluidState {
	return &fluidState{
		rt:            rt,
		minutes:       int(rt.cfg.DurationMin),
		pinned:        make(map[string]bool),
		arrCounts:     make(map[string][]int),
		msCallsPerMin: make(map[string][]float64),
	}
}

// noteArrivals records a service's materialized arrival list; called from
// setup for every open-loop and stream arrival process.
func (f *fluidState) noteArrivals(svc string, arr []float64) {
	counts := f.arrCounts[svc]
	if counts == nil {
		counts = make([]int, f.minutes)
		f.arrCounts[svc] = counts
	}
	for _, t := range arr {
		m := int(t / 60_000)
		if m >= f.minutes {
			m = f.minutes - 1
		}
		counts[m]++
	}
}

// prepare finalizes the static eligibility inputs once all arrivals are
// known: the pinned set, the per-microservice offered load per minute, and
// the per-node subtree microservice lists.
func (f *fluidState) prepare() {
	rt := f.rt
	if rt.res != nil {
		// The resilience fault model (retries, breakers, shedding, crash
		// semantics) is inherently per-request; the fluid path would erase
		// it. Everything stays exact.
		f.disabled = true
		f.exactCM = len(rt.containers) * f.minutes
		return
	}
	// Pin closed-loop services' whole graphs (their offered load is unknown
	// a priori) and every microservice touched by failure injection. Pinning
	// at microservice granularity also guarantees a fluid microservice never
	// receives discrete jobs from a pinned service sharing it — the mixing
	// would let discrete arrivals see none of the fluid load.
	hostHit := make(map[int]bool)
	for _, fail := range rt.cfg.Failures {
		if fail.Microservice != "" {
			f.pinned[fail.Microservice] = true
		} else {
			hostHit[fail.Host] = true
		}
	}
	for _, g := range rt.cfg.Graphs {
		closed := false
		if _, ok := rt.cfg.ClosedUsers[g.Service]; ok {
			if _, streamed := rt.streamsBySvc[g.Service]; !streamed {
				closed = true
			}
		}
		for _, ms := range g.Microservices() {
			if closed {
				f.pinned[ms] = true
				continue
			}
			if len(hostHit) > 0 {
				for _, cs := range rt.ms[ms].states {
					if hostHit[cs.c.Host.ID] {
						f.pinned[ms] = true
						break
					}
				}
			}
		}
	}
	for _, ms := range rt.msList {
		f.msCallsPerMin[ms.name] = make([]float64, f.minutes)
	}
	for _, g := range rt.cfg.Graphs {
		arr := f.arrCounts[g.Service]
		if arr == nil {
			continue
		}
		// Node multiplicity: each request visits every node of the graph
		// once (barring failures, which pin their microservices anyway).
		mult := make(map[string]int)
		for _, n := range g.PreOrder() {
			mult[n.Microservice]++
		}
		for ms, k := range mult {
			counts := f.msCallsPerMin[ms]
			if counts == nil {
				continue // containers exist but ms not placed? defensive
			}
			for m, c := range arr {
				counts[m] += float64(c * k)
			}
		}
	}
}

// refresh reclassifies every microservice for minute m and re-fits the fluid
// models against the interference level observed at the minute boundary.
func (f *fluidState) refresh(m int) {
	if f.disabled || m >= f.minutes {
		return
	}
	rt := f.rt
	for _, ms := range rt.msList {
		ms.fluid = false
		states := ms.states
		if f.pinned[ms.name] {
			f.exactCM += len(states)
			continue
		}
		prof := rt.cfg.Profiles[ms.name]
		infl := 1.0
		for _, cs := range states {
			if v := rt.cfg.Interference.HostInflation(cs.c.Host); v > infl {
				infl = v
			}
		}
		lamC := f.msCallsPerMin[ms.name][m] / 60_000 / float64(len(states))
		threads := states[0].c.Spec.Threads
		if prof.BaseMs <= 0 {
			// Instantaneous service: always fluid, zero latency.
			ms.model = fluidModel{waitBound: fluidWaitBoundMs}
		} else {
			mu := 1 / (prof.BaseMs * infl)
			q := queueing.MMC{Lambda: lamC, Mu: mu, Servers: threads}
			rho := q.Rho()
			if rho > fluidRhoMax {
				f.exactCM += len(states)
				continue
			}
			meanSvc := prof.BaseMs * infl
			tailSvc := meanSvc
			if prof.CV > 0 {
				z := math.Sqrt2 * math.Erfinv(2*fluidTailQuantile-1)
				tailSvc = math.Exp(ms.dist.Mu+z*ms.dist.Sigma) * infl
			}
			ms.model = fluidModel{
				erlangC:   q.ErlangCBounded(),
				exRate:    float64(threads)*mu - lamC,
				waitBound: fluidWaitBoundMs,
				inflation: infl,
				meanMs:    q.MeanWaitBounded(fluidWaitBoundMs) + meanSvc,
				tailMs:    q.WaitQuantileBounded(fluidTailQuantile, fluidWaitBoundMs) + tailSvc,
				rho:       rho,
			}
		}
		ms.fluid = true
		f.fluidCM += len(states)
		// Reflect the model's steady-state thread occupancy into host
		// utilization so colocated exact containers see the load.
		for _, cs := range states {
			cs.c.SetCPUUsage(ms.model.rho * cs.c.Spec.CPU)
		}
	}
	for _, sv := range rt.svcs {
		sv.root.markSubtree()
	}
}

// markSubtree marks nodes whose entire subtree is fluid this minute; those
// calls collapse to one completion event.
func (n *callNode) markSubtree() bool {
	n.subtree = n.ms.fluid
	for _, st := range n.stages {
		for _, c := range st {
			if !c.markSubtree() {
				n.subtree = false
			}
		}
	}
	return n.subtree
}

// drawLatency samples one call's latency (wait + service) from the
// microservice's current analytic model, consuming the runtime's RNG
// deterministically.
func (rt *Runtime) drawLatency(ms *msState) float64 {
	md := &ms.model
	var wait float64
	if md.erlangC > 0 {
		if u := rt.rng.Float64(); u > 1-md.erlangC {
			wait = -math.Log((1-u)/md.erlangC) / md.exRate
			if wait > md.waitBound || math.IsNaN(wait) {
				wait = md.waitBound
			}
		}
	}
	if ms.baseMs <= 0 {
		return wait
	}
	svc := ms.baseMs * md.inflation
	if ms.sampled {
		svc = ms.dist.Sample(rt.rng) * md.inflation
	}
	return wait + svc
}

// issueFluid serves one call of a fluid microservice: a whole-fluid subtree
// collapses to a single completion event (unless the trace is sampled —
// sampled traces keep per-node spans so the profiling pipeline still sees
// them); otherwise the node's own latency is drawn analytically and
// downstream stages execute normally.
func (f *Job) issueFluid() {
	rt, n := f.rt, f.node
	warm := f.Enqueued >= rt.warmMs
	if !f.sampled && n.subtree {
		lat := rt.subtreeLatency(n)
		n.creditSubtree(warm)
		f.at(f.Enqueued+lat+rt.cfg.NetworkDelayMs, evReturn)
		return
	}
	n.credit(warm)
	f.at(f.Enqueued+rt.drawLatency(n.ms), evServed)
}

// subtreeLatency draws the whole subtree's latency: own wait+service plus,
// per sequential stage, the slowest child subtree including its two network
// hops. All draws happen at decision time, which preserves determinism (one
// engine, one RNG) and is what makes the collapse one event per request.
func (rt *Runtime) subtreeLatency(n *callNode) float64 {
	total := rt.drawLatency(n.ms)
	for _, st := range n.stages {
		var slowest float64
		for _, c := range st {
			lat := 2*rt.cfg.NetworkDelayMs + rt.subtreeLatency(c)
			if lat > slowest {
				slowest = lat
			}
		}
		total += slowest
	}
	return total
}

// credit accounts one fluid call for the per-minute and per-service-pair
// call counters, mirroring the discrete path's arrive-time accounting; warm
// says whether the call arrives past the warm-up.
func (n *callNode) credit(warm bool) {
	n.ms.fluidCalls++
	if warm {
		*n.calls++
	}
}

// creditSubtree accounts every node of a collapsed subtree at the root's
// arrival instant.
func (n *callNode) creditSubtree(warm bool) {
	n.credit(warm)
	for _, st := range n.stages {
		for _, c := range st {
			c.creditSubtree(warm)
		}
	}
}
