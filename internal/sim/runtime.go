package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/stats"
	"erms/internal/workload"
)

// ServiceProfile describes the intrinsic cost of one microservice: the mean
// uncontended processing time per request and its coefficient of variation.
type ServiceProfile struct {
	BaseMs float64 // mean service time in milliseconds on an idle host
	CV     float64 // coefficient of variation of the service time
}

// Validate rejects a profile no service time can be drawn from: a NaN or
// infinite BaseMs would schedule a completion at a time the event heap
// cannot order, and a zero mean has no log-normal with CV > 0. A zero-cost
// profile (BaseMs 0, CV 0) is valid.
func (p ServiceProfile) Validate() error {
	switch {
	case !finite(p.BaseMs) || p.BaseMs < 0:
		return fmt.Errorf("BaseMs %v must be finite and >= 0", p.BaseMs)
	case !finite(p.CV) || p.CV < 0:
		return fmt.Errorf("CV %v must be finite and >= 0", p.CV)
	case p.BaseMs == 0 && p.CV > 0:
		return fmt.Errorf("CV %v needs BaseMs > 0", p.CV)
	}
	return nil
}

// CallRecord is one completed call between microservices, mirroring the two
// Jaeger spans the paper's tracing stack records per call (§5.1): client
// send/receive and server receive/send timestamps.
type CallRecord struct {
	TraceID            int64
	Service            string
	ParentMicroservice string // "" for the entering call from the client
	Microservice       string
	NodeID             int // position in the dependency graph
	ParentNodeID       int // -1 for the root call
	Stage              int // index of the stage within the parent's calls
	ClientSend         float64
	ServerRecv         float64
	ServerSend         float64
	ClientRecv         float64
}

// SpanObserver receives completed calls of sampled traces.
type SpanObserver interface {
	ObserveCall(CallRecord)
}

// Config configures one simulation run.
type Config struct {
	Seed uint64
	// Cluster supplies hosts and the placed containers. Required.
	Cluster *cluster.Cluster
	// Interference maps host utilization to service-time inflation.
	Interference cluster.InterferenceModel
	// Profiles gives the intrinsic service time per microservice. Required
	// for every microservice appearing in Graphs.
	Profiles map[string]ServiceProfile
	// Graphs holds one dependency graph per online service.
	Graphs []*graph.Graph
	// Patterns gives the offered load per service (requests/minute).
	Patterns map[string]workload.Pattern
	// SLAs optionally enables exact violation counting per service.
	SLAs map[string]workload.SLA
	// Priorities assigns, at each shared microservice, a priority rank per
	// service (0 = highest). Microservices present here use Erms' δ-policy;
	// all others are FCFS.
	Priorities map[string]map[string]int
	// Delta is the probabilistic priority parameter (§5.3.2); 0.05 in the
	// paper.
	Delta float64
	// DurationMin is the simulated duration in minutes. Required.
	DurationMin float64
	// WarmupMin excludes the initial transient from statistics.
	WarmupMin float64
	// NetworkDelayMs is the one-way transmission latency per call.
	NetworkDelayMs float64
	// SampleRate is the trace sampling fraction (default 0.1 as in Jaeger's
	// configuration, §5.1). Only sampled traces reach the Observer.
	SampleRate float64
	// Observer optionally receives spans of sampled traces.
	Observer SpanObserver
	// LatencySampleCap bounds per-minute per-microservice latency samples
	// (reservoir); defaults to 4096.
	LatencySampleCap int
	// Routing selects how calls are balanced across a microservice's
	// containers. The default round-robin matches typical service-mesh
	// upstream behaviour; power-of-two-choices is adaptive (it hides slow
	// containers by steering load away from them).
	Routing Routing
	// Failures injects container outages: each entry takes one container of
	// the microservice down at AtMin and restores it at RecoverMin (0 = no
	// recovery). Queued requests are re-routed to surviving containers. With
	// Resilience disabled, in-flight requests complete silently and a
	// microservice with zero survivors parks new arrivals at its first
	// container until recovery; with Resilience enabled, a crash fails its
	// in-flight requests with a retryable error (ErrCrashed) and zero
	// survivors fail new calls fast (ErrUnavailable).
	Failures []Failure
	// DropMinutes lists simulation minutes whose observability is lost: no
	// MinuteSamples are recorded and no traces starting in those minutes
	// reach the Observer (a collector outage / dropped metric windows). The
	// simulation itself is unaffected — only what the control plane sees.
	DropMinutes []int
	// ClosedUsers switches the listed services to a closed-loop client
	// population (wrk-style): each virtual user cycles request → think →
	// request, so the offered rate self-throttles under saturation instead
	// of growing queues without bound. Services present here ignore their
	// Patterns entry; achieved throughput ≈ users·60000/(think+response).
	ClosedUsers map[string]int
	// ThinkTimeMs is the mean exponential think time between a closed-loop
	// user's requests. Default 1000.
	ThinkTimeMs float64
	// Resilience enables the data-plane fault model: deadline propagation,
	// budgeted retries, circuit breaking, admission control, and crash
	// failure semantics. Nil (the default) keeps the historical infallible
	// data plane — runs are byte-identical to earlier releases.
	Resilience *Resilience
	// Fluid enables the hybrid fluid/discrete fast path: microservices whose
	// containers sit far below their latency knee (per-container M/M/c
	// utilization at or below Fluid.RhoMax, re-evaluated every simulated
	// minute) are served from the analytic queueing model instead of
	// per-request events, while near-knee, failure-targeted, and closed-loop
	// microservices keep exact discrete-event simulation. Nil (the default)
	// keeps the historical exact engine byte for byte. See FluidConfig for
	// the fidelity contract.
	Fluid *FluidConfig
	// Streams replaces Patterns with named client cohorts: each stream is an
	// independent arrival process onto one service, tagged with an SLO tier
	// that the whole request tree inherits (admission control sheds batch and
	// sheddable tiers before standard and critical). A service with at least
	// one stream ignores its Patterns entry; services without streams fall
	// back to Patterns/ClosedUsers. Per-stream outcomes land in
	// Result.PerStream and per-minute in Result.StreamMinutes. Empty (the
	// default) keeps the historical per-service workload model byte for byte.
	Streams []Stream
}

// Stream is one client cohort: an arrival pattern onto a service with an SLO
// tier and an optional cohort-specific SLA for outcome classification
// (falling back to the service SLA in Config.SLAs).
type Stream struct {
	// Cohort names the stream (for results and the timeline artifact).
	Cohort string
	// Service is the target online service; must match one of Config.Graphs.
	Service string
	// Tier is the stream's SLO tier.
	Tier workload.Tier
	// Pattern is the offered load in requests/minute.
	Pattern workload.Pattern
	// SLA optionally overrides the service SLA when classifying this
	// stream's outcomes.
	SLA *workload.SLA
}

// Failure describes one injected outage. Two scopes exist:
//
//   - Container scope (Microservice != ""): the Index-th container of the
//     microservice (ID order) goes down at AtMin and optionally recovers.
//   - Host scope (Microservice == ""): every container on host Host goes
//     down at AtMin — the in-window shadow of a node failure. Recovery, if
//     any, restores the same containers (a node rejoining before the control
//     plane reacts).
type Failure struct {
	Microservice string
	// Index selects which of the microservice's containers fails (by
	// position in ID order). Ignored for host-scoped failures.
	Index int
	// Host selects the failing host for host-scoped failures.
	Host int
	// AtMin / RecoverMin are minutes since simulation start.
	AtMin      float64
	RecoverMin float64
}

// Routing is the load-balancing policy across a microservice's containers.
type Routing int

// Routing policies.
const (
	// RouteRoundRobin cycles through containers in order.
	RouteRoundRobin Routing = iota
	// RouteP2C samples two containers and picks the less loaded one.
	RouteP2C
)

// finite is false for NaN and ±Inf, which the range checks cannot reject:
// NaN passes every `x < 0`, and a non-finite duration or delay schedules
// events at times the engine cannot order, or never ends the run.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (c *Config) validate() error {
	if c.Cluster == nil {
		return errors.New("sim: Config.Cluster is required")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DurationMin", c.DurationMin}, {"WarmupMin", c.WarmupMin},
		{"NetworkDelayMs", c.NetworkDelayMs}, {"ThinkTimeMs", c.ThinkTimeMs},
		{"Delta", c.Delta}, {"SampleRate", c.SampleRate},
	} {
		if !finite(f.v) {
			return fmt.Errorf("sim: Config.%s %v must be finite", f.name, f.v)
		}
	}
	if c.DurationMin <= 0 {
		return errors.New("sim: Config.DurationMin must be positive")
	}
	if c.WarmupMin < 0 {
		return fmt.Errorf("sim: Config.WarmupMin %v must be >= 0", c.WarmupMin)
	}
	if c.WarmupMin >= c.DurationMin {
		return fmt.Errorf("sim: Config.WarmupMin %v must be below DurationMin %v", c.WarmupMin, c.DurationMin)
	}
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("sim: Config.SampleRate %v must be in [0,1]", c.SampleRate)
	}
	if c.NetworkDelayMs < 0 {
		return fmt.Errorf("sim: Config.NetworkDelayMs %v must be >= 0", c.NetworkDelayMs)
	}
	if c.ThinkTimeMs < 0 {
		return fmt.Errorf("sim: Config.ThinkTimeMs %v must be >= 0", c.ThinkTimeMs)
	}
	// Delta is accepted in [0,1]: Delta=0 is the documented strict-priority
	// degeneration of the δ-policy (PriorityPolicy), which the motivation
	// sweeps exercise deliberately.
	if c.Delta < 0 || c.Delta > 1 {
		return fmt.Errorf("sim: Config.Delta %v must be in [0,1]", c.Delta)
	}
	if c.Resilience != nil {
		if err := c.Resilience.validate(); err != nil {
			return err
		}
	}
	if len(c.Graphs) == 0 {
		return errors.New("sim: no dependency graphs")
	}
	// Every profile, not only those the graphs reach: the fluid path re-fits
	// each deployed microservice every minute. The smallest bad name is
	// reported so the error does not depend on map order.
	var badMS string
	var badErr error
	for ms, p := range c.Profiles {
		if err := p.Validate(); err != nil && (badErr == nil || ms < badMS) {
			badMS, badErr = ms, err
		}
	}
	if badErr != nil {
		return fmt.Errorf("sim: service profile of microservice %s: %w", badMS, badErr)
	}
	streamed := make(map[string]bool, len(c.Streams))
	for i, s := range c.Streams {
		if s.Pattern == nil {
			return fmt.Errorf("sim: Streams[%d] (%q) has no arrival pattern", i, s.Cohort)
		}
		if !s.Tier.Valid() {
			return fmt.Errorf("sim: Streams[%d] (%q) has invalid tier %d", i, s.Cohort, int(s.Tier))
		}
		found := false
		for _, g := range c.Graphs {
			if g.Service == s.Service {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: Streams[%d] (%q) targets unknown service %q", i, s.Cohort, s.Service)
		}
		streamed[s.Service] = true
	}
	for _, g := range c.Graphs {
		if err := g.Validate(); err != nil {
			return err
		}
		if _, ok := c.Patterns[g.Service]; !ok && !streamed[g.Service] {
			if _, closed := c.ClosedUsers[g.Service]; !closed {
				return fmt.Errorf("sim: no workload pattern for service %s", g.Service)
			}
		}
		for _, ms := range g.Microservices() {
			if _, ok := c.Profiles[ms]; !ok {
				return fmt.Errorf("sim: no service profile for microservice %s", ms)
			}
			if len(c.Cluster.ContainersFor(ms)) == 0 {
				return fmt.Errorf("sim: no containers deployed for microservice %s", ms)
			}
		}
	}
	return nil
}

// MinuteSample is the per-minute, per-microservice aggregate the profiling
// pipeline consumes: exactly the tuple d = (L, γ, C, M) of §5.2.
type MinuteSample struct {
	Minute       int
	Microservice string
	// PerContainerCalls is γ: calls processed per container in this minute.
	PerContainerCalls float64
	// TailMs is the P95 of the microservice latency (queue + processing) of
	// calls completed this minute.
	TailMs float64
	// MeanMs is the mean microservice latency this minute.
	MeanMs float64
	// CPUUtil / MemUtil are the average utilizations of hosts holding this
	// microservice's containers, time-averaged over the minute.
	CPUUtil float64
	MemUtil float64
	// Calls is the raw number of completed calls.
	Calls int
	// Containers is the number of deployed containers.
	Containers int
}

// ServiceResult aggregates end-to-end request outcomes for one service,
// split along the workload.Outcome taxonomy: Count-Violations successes,
// Violations slow completions, Errors outright failures.
type ServiceResult struct {
	Service    string
	Count      int // completed requests (success + slow)
	Violations int // requests exceeding the SLA threshold (if an SLA was set)
	// Errors counts requests that failed outright (deadline expired, retries
	// exhausted, breaker open, shed, or crash). Always 0 with resilience
	// disabled. Failed requests contribute no latency sample.
	Errors int

	lat *stats.Reservoir
}

// P95 returns the 95th-percentile end-to-end latency in milliseconds.
func (s *ServiceResult) P95() float64 { return s.lat.Quantile(0.95) }

// P99 returns the 99th-percentile end-to-end latency.
func (s *ServiceResult) P99() float64 { return s.lat.Quantile(0.99) }

// Quantile returns an arbitrary end-to-end latency quantile.
func (s *ServiceResult) Quantile(q float64) float64 { return s.lat.Quantile(q) }

// Mean returns the mean end-to-end latency.
func (s *ServiceResult) Mean() float64 { return s.lat.Mean() }

// ViolationRate returns the fraction of requests that missed their SLA:
// slow completions plus errors over everything issued. With resilience
// disabled (Errors == 0) this is Violations/Count, exactly as before.
func (s *ServiceResult) ViolationRate() float64 {
	total := s.Count + s.Errors
	if total == 0 {
		return 0
	}
	return float64(s.Violations+s.Errors) / float64(total)
}

// ErrorRate returns the fraction of requests that failed outright.
func (s *ServiceResult) ErrorRate() float64 {
	total := s.Count + s.Errors
	if total == 0 {
		return 0
	}
	return float64(s.Errors) / float64(total)
}

// Good returns the number of requests completed within the SLA threshold —
// the numerator of goodput.
func (s *ServiceResult) Good() int { return s.Count - s.Violations }

// StreamResult aggregates end-to-end outcomes for one cohort stream, using
// the stream's own SLA when set (the service SLA otherwise).
type StreamResult struct {
	Cohort  string
	Service string
	Tier    workload.Tier
	// Count is completed requests (success + slow); Violations the slow
	// subset; Errors outright failures; Shed the subset of Errors whose
	// final failure was admission-control rejection.
	Count      int
	Violations int
	Errors     int
	Shed       int

	lat *stats.Reservoir
}

// P95 returns the stream's 95th-percentile end-to-end latency.
func (s *StreamResult) P95() float64 { return s.lat.Quantile(0.95) }

// Quantile returns an arbitrary end-to-end latency quantile.
func (s *StreamResult) Quantile(q float64) float64 { return s.lat.Quantile(q) }

// Good returns requests completed within the stream's SLA.
func (s *StreamResult) Good() int { return s.Count - s.Violations }

// ViolationRate returns the fraction of issued requests that missed the SLA
// (slow completions plus errors).
func (s *StreamResult) ViolationRate() float64 {
	total := s.Count + s.Errors
	if total == 0 {
		return 0
	}
	return float64(s.Violations+s.Errors) / float64(total)
}

// ErrorRate returns the fraction of issued requests that failed outright.
func (s *StreamResult) ErrorRate() float64 {
	total := s.Count + s.Errors
	if total == 0 {
		return 0
	}
	return float64(s.Errors) / float64(total)
}

// StreamMinute is the per-minute outcome row of one stream, the raw material
// of the spec runner's timeline artifact. Issued counts requests that
// started in the minute; Completed/Good/Slow/Errors/Shed count requests
// whose outcome landed in the minute (a request issued late in minute m may
// complete in m+1).
type StreamMinute struct {
	Minute int
	// Stream indexes Config.Streams / Result.PerStream.
	Stream int
	Issued int
	// Completed = Good + Slow.
	Completed int
	Good      int
	Slow      int
	Errors    int
	// Shed is the subset of Errors rejected by admission control.
	Shed int
}

// Result is the outcome of a simulation run.
type Result struct {
	// PerService holds end-to-end latency statistics keyed by service.
	PerService map[string]*ServiceResult
	// Samples holds the per-minute profiling aggregates in time order.
	Samples []MinuteSample
	// ServiceMSCalls[svc][ms] is the observed call rate (calls per minute,
	// averaged over the measured window) that service svc imposed on
	// microservice ms — the γ_{k,i} of the multiplexing model (§5.3.2).
	ServiceMSCalls map[string]map[string]float64
	// SimulatedMin is the measured (post-warmup) duration in minutes.
	SimulatedMin float64
	// Engine is the event engine's self-telemetry for the run, deterministic
	// for a fixed seed.
	Engine RunStats
	// Data holds the data-plane resilience counters (all zero when
	// Config.Resilience is nil).
	Data DataStats
	// PerStream holds one result per Config.Streams entry, index-aligned.
	// Nil when no streams are configured.
	PerStream []*StreamResult
	// StreamMinutes holds per-minute, per-stream outcome rows in (minute,
	// stream) order — only minutes past the warmup and not dropped. Nil when
	// no streams are configured.
	StreamMinutes []StreamMinute
	// Partitions is the number of sharing-group partitions the run was split
	// into: 1 for any single-stream run, ≥ 1 for RunPartitioned.
	Partitions int
	// FluidContainerMinutes / ExactContainerMinutes decompose container
	// simulation time by fidelity: one unit is one container simulated for
	// one minute on the fluid (analytic) or exact (discrete-event) path.
	// Without Config.Fluid every container-minute is exact.
	FluidContainerMinutes int
	ExactContainerMinutes int
}

// RunStats bundles the run's engine counters with the call-frame pool's
// recycling balance (how many Job records were heap-allocated versus reused).
type RunStats struct {
	EngineStats
	// JobsAllocated counts Job records taken from the heap rather than the
	// free list; JobsRecycled counts returns to the free list.
	JobsAllocated int
	JobsRecycled  int
}

// containerState is the runtime queueing state of one placed container.
type containerState struct {
	c      *cluster.Container
	ms     *msState
	busy   int
	queue  []*Job
	policy Policy
	// down marks an injected outage: the container accepts no new work.
	down bool
	// minuteCalls counts calls routed here in the current minute.
	minuteCalls int
	// inflight tracks jobs being processed (resilience only), so a crash can
	// fail them at the crash instant.
	inflight []*Job
}

func (cs *containerState) inSystem() int { return cs.busy + len(cs.queue) }

// msState is everything the calls of one microservice share, resolved by
// name once at construction so that no call looks anything up by string.
type msState struct {
	name   string
	states []*containerState // ID order
	up     []*containerState // the routable (not downed) subset, same order
	rrNext int               // round-robin cursor

	baseMs  float64
	sampled bool            // CV > 0: service times are drawn from dist
	dist    stats.LogNormal // unscaled service-time distribution

	// lat is the current minute's latency sample: (re)seeded at the minute's
	// first observation, drained by flushMinute, its buffer kept across
	// minutes.
	lat *stats.Reservoir

	// Fluid fast path (hybrid runs only), re-evaluated every minute.
	fluid      bool
	model      fluidModel
	fluidCalls int // fluid-path calls in the current minute
}

// refreshUp rebuilds the routable subset after an outage or a recovery.
func (ms *msState) refreshUp() {
	ms.up = ms.up[:0]
	for _, cs := range ms.states {
		if !cs.down {
			ms.up = append(ms.up, cs)
		}
	}
}

// callNode is one graph.Node resolved against the runtime: its microservice's
// shared state and what depends on (service, microservice) — priority rank,
// call counter, resilience edge.
type callNode struct {
	id     int
	ms     *msState
	stages [][]*callNode
	prio   int        // the service's rank at ms (0 when ms is FCFS)
	calls  *int       // measured calls the service imposed on ms
	edge   *edgeState // resilience only
	// subtree: every microservice below and including this node is fluid this
	// minute, so an unsampled call collapses to one event.
	subtree bool
}

// svcState is one online service resolved against the runtime.
type svcState struct {
	name   string
	root   *callNode
	res    *ServiceResult
	slaMs  float64
	hasSLA bool
}

// streamState is the SLA one cohort stream's outcomes are classified against.
type streamState struct {
	slaMs  float64
	hasSLA bool
}

// Runtime executes one simulation.
type Runtime struct {
	cfg Config
	eng *Engine
	rng *stats.RNG

	containers []*containerState // ID order
	ms         map[string]*msState
	msList     []*msState  // name order
	svcs       []*svcState // index-aligned with cfg.Graphs

	svcMSCalls map[string]map[string]*int
	warmMs     float64
	dropMin    map[int]bool

	// jobFree recycles call frames; see Job for when a frame returns here.
	// The runtime is single-threaded (one engine, one goroutine), so a plain
	// slice suffices.
	jobFree []*Job

	nextTrace int64
	result    *Result

	jobsAllocated int
	jobsRecycled  int

	// Resilience runtime (nil/zero when disabled — the hot path only pays
	// `rt.res != nil` checks).
	res      *Resilience
	breakers map[string]*breaker
	data     DataStats

	// Cohort-stream runtime (nil when Config.Streams is empty).
	streamsBySvc map[string][]int
	streams      []streamState
	streamAcc    []streamMinuteAcc

	// Fluid fast-path runtime (nil when Config.Fluid is nil).
	fl *fluidState
}

// streamMinuteAcc accumulates one stream's outcomes within the current
// minute; flushMinute drains it into Result.StreamMinutes.
type streamMinuteAcc struct {
	issued, completed, good, slow, errors, shed int
}

// NewRuntime validates the configuration and prepares a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 0.1
	}
	if cfg.LatencySampleCap <= 0 {
		cfg.LatencySampleCap = 4096
	}
	rt := &Runtime{
		cfg:        cfg,
		eng:        newEngine(cfg.NetworkDelayMs),
		rng:        stats.NewRNG(cfg.Seed),
		ms:         make(map[string]*msState),
		svcMSCalls: make(map[string]map[string]*int),
		warmMs:     cfg.WarmupMin * 60_000,
		dropMin:    make(map[int]bool, len(cfg.DropMinutes)),
		result: &Result{
			PerService:     make(map[string]*ServiceResult),
			ServiceMSCalls: make(map[string]map[string]float64),
		},
	}
	for _, m := range cfg.DropMinutes {
		rt.dropMin[m] = true
	}
	if cfg.Resilience != nil {
		res := cfg.Resilience.withDefaults()
		rt.res = &res
		rt.breakers = make(map[string]*breaker)
	}
	for _, c := range cfg.Cluster.Containers() {
		name := c.Spec.Microservice
		ms := rt.ms[name]
		if ms == nil {
			prof := cfg.Profiles[name]
			ms = &msState{name: name, baseMs: prof.BaseMs}
			if prof.CV > 0 {
				ms.sampled = true
				ms.dist = stats.LogNormalFromMeanCV(prof.BaseMs, prof.CV)
			}
			rt.ms[name] = ms
			rt.msList = append(rt.msList, ms)
		}
		var pol Policy = FCFS{}
		if _, shared := cfg.Priorities[name]; shared {
			pol = PriorityPolicy{Delta: cfg.Delta}
		}
		cs := &containerState{c: c, ms: ms, policy: pol}
		rt.containers = append(rt.containers, cs)
		ms.states = append(ms.states, cs)
	}
	sort.Slice(rt.msList, func(i, j int) bool { return rt.msList[i].name < rt.msList[j].name })
	for _, ms := range rt.msList {
		ms.refreshUp()
	}
	for _, g := range cfg.Graphs {
		res := &ServiceResult{
			Service: g.Service,
			lat:     stats.NewReservoir(1<<15, rt.rng.Split()),
		}
		rt.result.PerService[g.Service] = res
		rt.svcMSCalls[g.Service] = make(map[string]*int)
		sla, hasSLA := cfg.SLAs[g.Service]
		rt.svcs = append(rt.svcs, &svcState{
			name:   g.Service,
			root:   rt.resolve(g.Service, g.Root),
			res:    res,
			slaMs:  sla.Threshold,
			hasSLA: hasSLA,
		})
	}
	if cfg.Fluid != nil {
		rt.fl = newFluidState(rt)
	}
	if len(cfg.Streams) > 0 {
		rt.streamsBySvc = make(map[string][]int)
		rt.streams = make([]streamState, len(cfg.Streams))
		rt.streamAcc = make([]streamMinuteAcc, len(cfg.Streams))
		rt.result.PerStream = make([]*StreamResult, len(cfg.Streams))
		for i, s := range cfg.Streams {
			rt.result.PerStream[i] = &StreamResult{
				Cohort:  s.Cohort,
				Service: s.Service,
				Tier:    s.Tier,
				lat:     stats.NewReservoir(1<<15, rt.rng.Split()),
			}
			sla, hasSLA := cfg.SLAs[s.Service]
			if s.SLA != nil {
				sla, hasSLA = *s.SLA, true
			}
			rt.streams[i] = streamState{slaMs: sla.Threshold, hasSLA: hasSLA}
			rt.streamsBySvc[s.Service] = append(rt.streamsBySvc[s.Service], i)
		}
	}
	return rt, nil
}

// resolve builds the callNode tree under n for service svc.
func (rt *Runtime) resolve(svc string, n *graph.Node) *callNode {
	ms := rt.ms[n.Microservice]
	counters := rt.svcMSCalls[svc]
	calls := counters[ms.name]
	if calls == nil {
		calls = new(int)
		counters[ms.name] = calls
	}
	cn := &callNode{id: n.ID, ms: ms, prio: rt.cfg.Priorities[ms.name][svc], calls: calls}
	if rt.res != nil {
		cn.edge = rt.newEdge(svc, n)
	}
	for _, st := range n.Stages {
		kids := make([]*callNode, len(st))
		for i, c := range st {
			kids[i] = rt.resolve(svc, c)
		}
		cn.stages = append(cn.stages, kids)
	}
	return cn
}

// Run executes the simulation and returns aggregated results.
func (rt *Runtime) Run() *Result {
	rt.setup()
	// Run past the nominal end so in-flight requests complete.
	rt.advanceTo(rt.cfg.DurationMin*60_000 + drainMs)
	return rt.finish()
}

// drainMs is how far past the nominal end the engine runs so in-flight
// requests complete.
const drainMs = 10 * 60_000

// setup schedules the whole workload — arrivals, failures, minute ticks —
// without executing any of it. Run is setup + advanceTo(end) + finish;
// RunPartitioned interleaves advanceTo calls across partitions at minute
// boundaries instead.
func (rt *Runtime) setup() {
	endMs := rt.cfg.DurationMin * 60_000
	warmMs := rt.cfg.WarmupMin * 60_000

	// Schedule request arrivals per service: open-loop Poisson replay by
	// default, or a closed-loop user population where configured. Services
	// with cohort streams run one independent arrival process per stream
	// (each with its own split RNG, in stream-index order) instead.
	for gi, g := range rt.cfg.Graphs {
		sv := rt.svcs[gi]
		if idxs, ok := rt.streamsBySvc[g.Service]; ok {
			for _, si := range idxs {
				arr := workload.Arrivals(rt.cfg.Streams[si].Pattern, rt.rng.Split(), 0, rt.cfg.DurationMin)
				if rt.fl != nil {
					rt.fl.noteArrivals(g.Service, arr)
				}
				rt.scheduleArrivals(sv, si, arr, warmMs)
			}
			continue
		}
		if users, ok := rt.cfg.ClosedUsers[g.Service]; ok {
			rt.startClosedLoop(sv, users, endMs, warmMs)
			continue
		}
		arr := workload.Arrivals(rt.cfg.Patterns[g.Service], rt.rng.Split(), 0, rt.cfg.DurationMin)
		if rt.fl != nil {
			rt.fl.noteArrivals(g.Service, arr)
		}
		rt.scheduleArrivals(sv, -1, arr, warmMs)
	}

	// Schedule injected container failures and recoveries.
	for _, f := range rt.cfg.Failures {
		var hit []*containerState
		if f.Microservice == "" {
			// Host scope: every container on the host, in ID order, so the
			// schedule is deterministic.
			for _, cs := range rt.containers {
				if cs.c.Host.ID == f.Host {
					hit = append(hit, cs)
				}
			}
		} else {
			ms := rt.ms[f.Microservice]
			if ms == nil || f.Index < 0 || f.Index >= len(ms.states) {
				continue
			}
			hit = append(hit, ms.states[f.Index])
		}
		for _, cs := range hit {
			cs := cs
			rt.eng.At(f.AtMin*60_000, func() { rt.failContainer(cs) })
			if f.RecoverMin > f.AtMin {
				rt.eng.At(f.RecoverMin*60_000, func() {
					cs.down = false
					cs.ms.refreshUp()
					rt.kick(cs)
				})
			}
		}
	}

	// Minute ticks for profiling aggregation. Pre-warmup minutes are flushed
	// (to reset the accumulators) but not recorded.
	firstMinute := int(math.Ceil(rt.cfg.WarmupMin))
	for m := 0; m < int(rt.cfg.DurationMin); m++ {
		m := m
		rt.eng.At(float64(m+1)*60_000, func() {
			rt.flushMinute(m, m >= firstMinute && !rt.dropMin[m])
			if rt.fl != nil {
				// Re-fit the fluid models for the minute that just opened,
				// after the flush so the closing minute's models stay intact
				// for its synthesized samples.
				rt.fl.refresh(m + 1)
			}
		})
	}

	if rt.fl != nil {
		rt.fl.prepare()
		rt.fl.refresh(0)
	}
}

// advanceTo executes all events up to and including time t (ms).
func (rt *Runtime) advanceTo(t float64) { rt.eng.Run(t) }

// finish folds the accumulators into the Result after the last advanceTo.
func (rt *Runtime) finish() *Result {
	rt.result.SimulatedMin = rt.cfg.DurationMin - rt.cfg.WarmupMin
	for svc, byMS := range rt.svcMSCalls {
		rates := make(map[string]float64, len(byMS))
		for ms, n := range byMS {
			if *n > 0 {
				rates[ms] = float64(*n) / rt.result.SimulatedMin
			}
		}
		rt.result.ServiceMSCalls[svc] = rates
	}
	rt.result.Engine = RunStats{
		EngineStats:   rt.eng.Stats(),
		JobsAllocated: rt.jobsAllocated,
		JobsRecycled:  rt.jobsRecycled,
	}
	rt.result.Data = rt.data
	rt.result.Partitions = 1
	if rt.fl != nil {
		rt.result.FluidContainerMinutes = rt.fl.fluidCM
		rt.result.ExactContainerMinutes = rt.fl.exactCM
	} else {
		rt.result.ExactContainerMinutes = len(rt.containers) * int(rt.cfg.DurationMin)
	}
	return rt.result
}

// scheduleArrivals walks a pre-computed, sorted arrival list lazily: one
// closure per arrival process keeps exactly one pending arrival event in the
// heap and re-arms itself for the next timestamp. workload.Arrivals fully
// consumes its RNG before returning, so laziness cannot perturb random
// streams; execution order is unchanged because events still fire in
// timestamp order. si tags every request with its cohort stream (-1 on the
// untiered Patterns path).
func (rt *Runtime) scheduleArrivals(sv *svcState, si int, arr []float64, warmMs float64) {
	if len(arr) == 0 {
		return
	}
	idx := 0
	var walk func()
	walk = func() {
		t := arr[idx]
		idx++
		if idx < len(arr) {
			rt.eng.At(arr[idx], walk)
		}
		rt.startRequest(sv, si, t >= warmMs, nil)
	}
	rt.eng.At(arr[0], walk)
}

// startRequest begins one end-to-end request of service sv; then, if not
// nil, runs when the request ends (the closed-loop client). si identifies the
// issuing cohort stream (-1 on the untiered Patterns path); stream requests
// propagate their SLO tier down the whole call tree and record per-stream
// outcomes on top of the per-service ones.
func (rt *Runtime) startRequest(sv *svcState, si int, measured bool, then func()) {
	rt.nextTrace++
	sampled := rt.cfg.Observer != nil && rt.rng.Float64() < rt.cfg.SampleRate
	t0 := rt.eng.Now()
	if sampled && rt.dropMin[int(t0/60_000)] {
		// Observability gap: the trace is lost before reaching the collector.
		// The sampling draw above already consumed the RNG, so gaps do not
		// perturb the random stream of the rest of the run.
		sampled = false
	}

	tier := workload.TierStandard
	if si >= 0 {
		tier = rt.cfg.Streams[si].Tier
		rt.streamAcc[si].issued++
	}
	slaMs, hasSLA := rt.sla(sv, si)

	f := rt.newFrame()
	f.Service, f.svc, f.Tier, f.node = sv.name, sv, tier, sv.root
	f.traceID, f.sampled = rt.nextTrace, sampled
	f.t0, f.stream, f.measured, f.then = t0, si, measured, then
	// The request deadline (resilience only): derived from the SLA when
	// configured, else the absolute request timeout. 0 = unbounded.
	if rt.res != nil {
		if hasSLA && rt.res.TimeoutSLAMultiple > 0 {
			f.edgeDeadline = t0 + rt.res.TimeoutSLAMultiple*slaMs
		} else if rt.res.RequestTimeoutMs > 0 {
			f.edgeDeadline = t0 + rt.res.RequestTimeoutMs
		}
	}
	f.call()
}

// sla returns the latency bound a request of service sv issued by stream si
// (-1: none) is classified against: the stream's own when it has one.
func (rt *Runtime) sla(sv *svcState, si int) (ms float64, ok bool) {
	if si >= 0 {
		return rt.streams[si].slaMs, rt.streams[si].hasSLA
	}
	return sv.slaMs, sv.hasSLA
}

// requestDone records a request's success; it fires at the client-receive
// instant of root frame f.
func (rt *Runtime) requestDone(f *Job) {
	lat := rt.eng.Now() - f.t0
	slaMs, hasSLA := rt.sla(f.svc, f.stream)
	slow := hasSLA && lat > slaMs
	if f.measured {
		res := f.svc.res
		res.Count++
		res.lat.Add(lat)
		if slow {
			res.Violations++
		}
		if f.stream >= 0 {
			sr := rt.result.PerStream[f.stream]
			sr.Count++
			sr.lat.Add(lat)
			if slow {
				sr.Violations++
			}
		}
	}
	if f.stream >= 0 {
		acc := &rt.streamAcc[f.stream]
		acc.completed++
		if slow {
			acc.slow++
		} else {
			acc.good++
		}
	}
	if f.then != nil {
		f.then()
	}
}

// requestFailed records a request's outright failure (resilience only).
func (rt *Runtime) requestFailed(f *Job, err CallErr) {
	if f.measured {
		f.svc.res.Errors++
		if f.stream >= 0 {
			sr := rt.result.PerStream[f.stream]
			sr.Errors++
			if err == ErrShed {
				sr.Shed++
			}
		}
	}
	if f.stream >= 0 {
		acc := &rt.streamAcc[f.stream]
		acc.errors++
		if err == ErrShed {
			acc.shed++
		}
	}
	if f.then != nil {
		f.then()
	}
}

// startClosedLoop spawns a closed-loop user population for one service: each
// user issues a request, waits for the response, thinks for an exponential
// time, and repeats until the nominal end of the run.
func (rt *Runtime) startClosedLoop(sv *svcState, users int, endMs, warmMs float64) {
	think := rt.cfg.ThinkTimeMs
	if think <= 0 {
		think = 1000
	}
	rng := rt.rng.Split()
	var userLoop func()
	rethink := func() { rt.eng.Schedule(think*rng.ExpFloat64(), userLoop) }
	userLoop = func() {
		if rt.eng.Now() >= endMs {
			return
		}
		rt.startRequest(sv, -1, rt.eng.Now() >= warmMs, rethink)
	}
	for u := 0; u < users; u++ {
		// Staggered starts spread the initial burst over one think time.
		rt.eng.At(rng.Float64()*think, userLoop)
	}
}

// kick starts queued work on free threads (after a completion or recovery).
// With resilience enabled, jobs whose client attempt already settled (the
// per-attempt timeout fired while they queued) are dropped without executing
// — the server side of deadline propagation.
func (rt *Runtime) kick(cs *containerState) {
	for len(cs.queue) > 0 && cs.busy < cs.c.Spec.Threads {
		idx := cs.policy.Pick(cs.queue, rt.rng)
		next := cs.queue[idx]
		cs.queue = append(cs.queue[:idx], cs.queue[idx+1:]...)
		if rt.res != nil && next.settled {
			rt.data.DeadlineSkips++
		} else {
			rt.startJob(cs, next)
		}
		next.unref() // the queue's hold
	}
}

// failContainer marks a container down and re-routes its queued work. With
// resilience enabled the crash also severs in-flight work: each processing
// request fails at the crash instant with the retryable ErrCrashed instead
// of silently completing, and its completion event, already in the heap,
// becomes stale.
func (rt *Runtime) failContainer(cs *containerState) {
	cs.down = true
	cs.ms.refreshUp()
	queued := cs.queue
	cs.queue = nil
	if rt.res != nil {
		inflight := cs.inflight
		cs.inflight = nil
		cs.busy = 0
		rt.updateUsage(cs)
		for _, job := range inflight {
			rt.data.CrashFailures++
			job.crashed = true
			job.sendFailure(ErrCrashed)
			job.unref() // the in-flight list's hold
		}
	}
	for _, job := range queued {
		job.arrive()
		job.unref() // the old queue's hold
	}
}

// startJob begins processing a job on a free thread of cs.
func (rt *Runtime) startJob(cs *containerState, job *Job) {
	cs.busy++
	rt.updateUsage(cs)

	base := cs.ms.baseMs
	if cs.ms.sampled {
		base = cs.ms.dist.Sample(rt.rng)
	}
	inflation := rt.cfg.Interference.HostInflation(cs.c.Host)

	job.cs = cs
	if rt.res != nil {
		cs.inflight = append(cs.inflight, job)
		job.refs++
	}
	job.after(base*inflation, evComplete)
}

// dropInflight removes a completing job from the container's in-flight list
// (resilience only; the list is bounded by the thread count).
func (rt *Runtime) dropInflight(cs *containerState, job *Job) {
	for i, j := range cs.inflight {
		if j == job {
			cs.inflight = append(cs.inflight[:i], cs.inflight[i+1:]...)
			job.refs--
			return
		}
	}
}

// updateUsage reflects the container's instantaneous thread occupancy into
// cluster CPU-usage accounting, which in turn feeds host utilization and the
// interference inflation of later jobs (the dynamic feedback loop).
func (rt *Runtime) updateUsage(cs *containerState) {
	frac := float64(cs.busy) / float64(cs.c.Spec.Threads)
	cs.c.SetCPUUsage(frac * cs.c.Spec.CPU)
}

// recordNodeLatency adds one microservice latency observation for the
// current minute.
func (rt *Runtime) recordNodeLatency(ms *msState, latency float64) {
	if ms.fluid {
		// Fluid microservices synthesize their minute samples from the
		// analytic model; the few discretely timed observations (sampled
		// traces) would be a biased subset.
		return
	}
	// The minute's first observation draws the reservoir's RNG.
	if ms.lat == nil {
		ms.lat = stats.NewReservoir(rt.cfg.LatencySampleCap, rt.rng.Split())
	} else if ms.lat.Seen() == 0 {
		ms.lat.Reset(rt.rng.Split())
	}
	ms.lat.Add(latency)
}

// flushMinute emits MinuteSamples for minute m (when record is true) and
// resets the per-minute accumulators either way.
func (rt *Runtime) flushMinute(m int, record bool) {
	for _, ms := range rt.msList {
		calls := ms.fluidCalls
		ms.fluidCalls = 0
		var cpu, mem float64
		for _, cs := range ms.states {
			calls += cs.minuteCalls
			cs.minuteCalls = 0
			cpu += cs.c.Host.CPUUtil()
			mem += cs.c.Host.MemUtil()
		}
		n := float64(len(ms.states))
		sample := MinuteSample{
			Minute:            m,
			Microservice:      ms.name,
			PerContainerCalls: float64(calls) / n,
			CPUUtil:           cpu / n,
			MemUtil:           mem / n,
			Calls:             calls,
			Containers:        len(ms.states),
		}
		if rv := ms.lat; rv != nil && rv.Seen() > 0 {
			sample.TailMs = rv.Quantile(0.95)
			sample.MeanMs = rv.Mean()
			rv.Reset(nil) // re-seeded by the next minute's first observation
		}
		if ms.fluid && calls > 0 {
			// Fluid minutes synthesize the latency columns from the analytic
			// model that served the calls.
			sample.TailMs = ms.model.tailMs
			sample.MeanMs = ms.model.meanMs
		}
		if record {
			rt.result.Samples = append(rt.result.Samples, sample)
		}
	}
	for si := range rt.streamAcc {
		acc := rt.streamAcc[si]
		rt.streamAcc[si] = streamMinuteAcc{}
		if record {
			rt.result.StreamMinutes = append(rt.result.StreamMinutes, StreamMinute{
				Minute:    m,
				Stream:    si,
				Issued:    acc.issued,
				Completed: acc.completed,
				Good:      acc.good,
				Slow:      acc.slow,
				Errors:    acc.errors,
				Shed:      acc.shed,
			})
		}
	}
}
