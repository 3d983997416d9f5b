package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/recycle"
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
	TraceID      int64
	Service      string
	Microservice string
	NodeID       int // position in the dependency graph
	ParentNodeID int // -1 for the root call
	ClientSend   float64
	ServerRecv   float64
	ServerSend   float64
	ClientRecv   float64
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
	// Patterns gives the offered load (requests/minute) of each service no
	// Streams entry targets, as one open-loop standard-tier source accounted
	// like a stream but not exported. Other entries are ignored.
	Patterns map[string]workload.Pattern
	// SLAs optionally enables exact violation counting per service.
	SLAs map[string]workload.SLA
	// Priorities assigns, at each shared microservice, a priority rank per
	// service (0 = highest). Microservices present here use Erms' δ-policy;
	// all others queue every call at rank 0, a one-rank queue.
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
	// Observer optionally receives spans of sampled traces. Whether a trace
	// is sampled is a hash of (Seed, trace ID), not a draw from the run's
	// RNG, so an exact-engine run is the same with and without an Observer.
	// Hybrid runs are the exception: a sampled trace keeps its per-node
	// spans instead of collapsing its fluid subtree, which draws differently.
	Observer SpanObserver
	// Failures injects container outages: each entry takes one container of
	// the microservice down at AtMin and restores it at RecoverMin (0 = no
	// recovery). Queued requests are re-routed to surviving containers, a
	// crash fails its in-flight requests with the retryable ErrCrashed, and a
	// call to a microservice with no container up fails fast with the
	// retryable ErrUnavailable. Whether a failed call is retried is up to
	// Resilience; a request whose call fails for good ends as an error
	// (ServiceResult.Errors), so every issued request is counted.
	Failures []Failure
	// DropMinutes lists simulation minutes whose observability is lost: no
	// MinuteSamples are recorded and no traces starting in those minutes
	// reach the Observer (a collector outage / dropped metric windows). The
	// simulation itself is unaffected — only what the control plane sees.
	DropMinutes []int
	// ThinkTimeMs is the mean exponential think time between a closed-loop
	// user's requests (Stream.Users). Default 1000.
	ThinkTimeMs float64
	// Resilience configures the data plane's per-call mechanisms: deadline
	// propagation, per-attempt timeouts, budgeted retries, circuit breaking
	// and admission control. Nil is the zero Resilience — one attempt per
	// call, no deadline, no breaker, no shedding — and runs exactly as
	// &Resilience{} does, on the one data plane every run has.
	Resilience *Resilience
	// Streams are the run's named client cohorts: each is one arrival
	// process onto one service, open-loop or a closed-loop user population,
	// tagged with an SLO tier that the whole request tree inherits
	// (admission control sheds batch and sheddable tiers before standard and
	// critical). A service with at least one stream ignores its Patterns
	// entry. Per-stream outcomes land in Result.PerStream and per-minute in
	// Result.StreamMinutes, both index-aligned with Streams.
	Streams []Stream

	// fluid enables the hybrid fluid/discrete fast path (see fluidRhoMax):
	// microservices whose containers sit far below their latency knee,
	// re-evaluated every simulated minute, are served from the analytic
	// queueing model instead of per-request events, while near-knee,
	// failure-targeted, and closed-loop microservices keep exact
	// discrete-event simulation. Only RunPartitioned sets it, in SimHybrid
	// mode; false keeps the exact engine byte for byte.
	fluid bool
}

// latencySampleCap bounds the per-minute per-microservice latency sample (a
// reservoir); serviceSampleCap bounds each service's end-to-end one.
const (
	latencySampleCap = 4096
	serviceSampleCap = 1 << 15
)

// What outlives a run (DESIGN §4e): the buffers that grow with a run's size
// go back to these lists when the run is done with them, so the next run
// (the next control window) reuses what this one grew. Only capacity carries
// over: every buffer is reset or truncated when taken. The per-service
// reservoirs come back through Result.Release, the rest at finish. Two GCs
// with no run between them empty a list, so nothing here stays live once
// the windows stop.
var (
	serviceLats = recycle.List[stats.Reservoir]{New: func() *stats.Reservoir { return stats.NewReservoir(serviceSampleCap, nil) }}
	minuteLats  = recycle.List[stats.Reservoir]{New: func() *stats.Reservoir { return stats.NewReservoir(latencySampleCap, nil) }}
	scratchBufs = recycle.List[[]float64]{New: func() *[]float64 { return new([]float64) }}
	treeBufs    = recycle.List[callTrees]{New: func() *callTrees { return new(callTrees) }}
)

// Stream is one client cohort: an arrival process onto a service with an SLO
// tier and an optional cohort-specific SLA for outcome classification
// (falling back to the service SLA in Config.SLAs). The process is open-loop
// (Pattern) or closed-loop (Users); a stream sets exactly one of the two.
type Stream struct {
	// Cohort names the stream (for results and the timeline artifact).
	Cohort string
	// Service is the target online service; must match one of Config.Graphs.
	Service string
	// Tier is the stream's SLO tier.
	Tier workload.Tier
	// Pattern is an open-loop stream's offered load in requests/minute.
	Pattern workload.Pattern
	// Users is a closed-loop (wrk-style) stream's client population: each
	// user cycles request → response → think (Config.ThinkTimeMs) until the
	// nominal end of the run, so the offered rate self-throttles under
	// saturation; throughput ≈ Users·60000/(think+response).
	Users int
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

// finite is false for NaN and ±Inf, which the range checks cannot reject:
// NaN passes every `x < 0`, and a non-finite duration or delay schedules
// events at times the engine cannot order, or never ends the run.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxDurationMin bounds Config.DurationMin (~1.9 years, far past any run
// here). validate reads every minute's arrival rate and setup schedules a
// tick per minute, so the duration bounds the work of both; unbounded, a
// duration past 2^53 minutes would stop m++ advancing and neither would end.
const maxDurationMin = 1_000_000

// finiteRates rejects a pattern whose rate is NaN or ±Inf at any minute the
// run draws arrivals for (workload.Arrivals samples the rate at each whole
// minute m in [0, durationMin)). Such a rate has no Poisson count:
// stats.Poisson draws nothing for NaN, which would pass a broken workload
// off as an idle one.
func finiteRates(p workload.Pattern, durationMin float64) error {
	for m := 0.0; m < durationMin; m++ {
		if r := p.RateAt(m); !finite(r) {
			return fmt.Errorf("rate %v req/min at minute %v must be finite", r, m)
		}
	}
	return nil
}

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
	for i, f := range c.Failures {
		if !finite(f.AtMin) {
			return fmt.Errorf("sim: Config.Failures[%d].AtMin %v must be finite", i, f.AtMin)
		}
		if !finite(f.RecoverMin) {
			return fmt.Errorf("sim: Config.Failures[%d].RecoverMin %v must be finite", i, f.RecoverMin)
		}
	}
	if c.DurationMin <= 0 {
		return errors.New("sim: Config.DurationMin must be positive")
	}
	if c.DurationMin > maxDurationMin {
		return fmt.Errorf("sim: Config.DurationMin %v must be at most %v", c.DurationMin, float64(maxDurationMin))
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
	// degeneration of the δ-policy (jobQueue.pop), which the motivation
	// sweeps exercise deliberately.
	if c.Delta < 0 || c.Delta > 1 {
		return fmt.Errorf("sim: Config.Delta %v must be in [0,1]", c.Delta)
	}
	if err := c.resilience().validate(); err != nil {
		return err
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
		if s.Users < 0 || (s.Pattern != nil) == (s.Users > 0) {
			return fmt.Errorf("sim: Streams[%d] (%q) needs an arrival pattern or Users > 0, not both (Users %d)", i, s.Cohort, s.Users)
		}
		if !s.Tier.Valid() {
			return fmt.Errorf("sim: Streams[%d] (%q) has invalid tier %d", i, s.Cohort, int(s.Tier))
		}
		if !slices.ContainsFunc(c.Graphs, func(g *graph.Graph) bool { return g.Service == s.Service }) {
			return fmt.Errorf("sim: Streams[%d] (%q) targets unknown service %q", i, s.Cohort, s.Service)
		}
		streamed[s.Service] = true
	}
	for i, s := range c.Streams {
		if s.Pattern == nil {
			continue
		}
		if err := finiteRates(s.Pattern, c.DurationMin); err != nil {
			return fmt.Errorf("sim: Streams[%d] (%q): %w", i, s.Cohort, err)
		}
	}
	for _, g := range c.Graphs {
		if err := g.Validate(); err != nil {
			return err
		}
		if !streamed[g.Service] {
			p, ok := c.Patterns[g.Service]
			if !ok || p == nil {
				return fmt.Errorf("sim: no workload pattern for service %s", g.Service)
			}
			if err := finiteRates(p, c.DurationMin); err != nil {
				return fmt.Errorf("sim: workload pattern of service %s: %w", g.Service, err)
			}
		}
		// The smallest failing name is reported, its profile checked before
		// its containers, so the error does not depend on node order.
		bad := ""
		for _, n := range g.Nodes() {
			ms := n.Microservice
			if bad != "" && ms >= bad {
				continue
			}
			if _, ok := c.Profiles[ms]; !ok || c.Cluster.CountFor(ms) == 0 {
				bad = ms
			}
		}
		if bad != "" {
			if _, ok := c.Profiles[bad]; !ok {
				return fmt.Errorf("sim: no service profile for microservice %s", bad)
			}
			return fmt.Errorf("sim: no containers deployed for microservice %s", bad)
		}
	}
	return nil
}

// resilience is the run's copy of the data-plane configuration: the zero
// Resilience when Config.Resilience is nil.
func (c *Config) resilience() Resilience {
	if c.Resilience == nil {
		return Resilience{}
	}
	return *c.Resilience
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
	// CPUUtil / MemUtil are the average utilizations of hosts holding this
	// microservice's containers, time-averaged over the minute.
	CPUUtil float64
	MemUtil float64
	// Calls is the raw number of completed calls.
	Calls int
}

// ServiceResult aggregates end-to-end request outcomes for one service:
// Count-Violations successes, Violations slow completions, Errors outright
// failures.
type ServiceResult struct {
	Count      int // completed requests (success + slow)
	Violations int // requests exceeding the SLA threshold (if an SLA was set)
	// Errors counts requests that failed outright (deadline expired, retries
	// exhausted, breaker open, shed, a crash, or no container up). Failed
	// requests contribute no latency sample. Count + Errors is every
	// measured request that ended; none is left waiting on a dead container.
	Errors int

	lat *stats.Reservoir // nil once Result.Release handed it back
	p95 float64          // the P95 of lat, selected once when the run finishes
}

// P95 returns the 95th-percentile end-to-end latency in milliseconds.
func (s *ServiceResult) P95() float64 { return s.p95 }

// Mean returns the mean end-to-end latency. It reads the latency sample, so
// it is valid until Result.Release, and NaN after.
func (s *ServiceResult) Mean() float64 {
	if s.lat == nil {
		return math.NaN()
	}
	return s.lat.Mean()
}

// ViolationRate returns the fraction of requests that missed their SLA:
// slow completions plus errors over everything that ended — the paper's SLA
// violation probability (§6) as a share of issued requests, so an outage's
// failed requests count as misses.
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
	Tier workload.Tier
	// Count is completed requests (success + slow); Violations the slow
	// subset; Errors outright failures.
	Count      int
	Violations int
	Errors     int
}

// Good returns requests completed within the stream's SLA.
func (s *StreamResult) Good() int { return s.Count - s.Violations }

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
	// SimulatedMin is the measured (post-warmup) duration in minutes.
	SimulatedMin float64
	// Engine is the event engine's self-telemetry for the run, deterministic
	// for a fixed seed.
	Engine RunStats
	// Data holds the data-plane counters: attempts, and what failed or
	// retried them.
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
	// Outside hybrid mode every container-minute is exact.
	FluidContainerMinutes int
	ExactContainerMinutes int

	// services holds PerService's values in Config.Graphs order (partition
	// order, then graph order, for RunPartitioned), the order Release walks.
	services []*ServiceResult
}

// Release hands the run's per-service latency samples back for a later run
// to reuse. What the Result stores stays valid — P95, ViolationRate,
// ErrorRate, Good and every other field — but Mean, which reads the sample,
// does not. A second Release is a no-op, and a Result that is never released
// costs nothing but the reuse it forgoes.
//
// The samples go back last service first, so that the next run over the
// same graphs, which takes them in graph order, gives each service the
// sample it had: one that is already as large as that service needs.
func (r *Result) Release() {
	for i := len(r.services) - 1; i >= 0; i-- {
		if sr := r.services[i]; sr.lat != nil {
			serviceLats.Put(sr.lat)
			sr.lat = nil
		}
	}
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
	c     *cluster.Container
	ms    *msState
	busy  int
	queue jobQueue
	// down marks an injected outage: the container accepts no new work.
	down bool
	// minuteCalls counts calls routed here in the current minute.
	minuteCalls int
}

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
	// minutes. Only a recorded minute (Runtime.recording) fills it, so a run
	// that records no minute never takes one; finish returns it to
	// minuteLats.
	lat *stats.Reservoir
	// drawn: the open minute's first observation has taken its draw from the
	// run's RNG, a reservoir split in a recorded minute and a bare word in an
	// unrecorded one. flushMinute clears it.
	drawn bool

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
// and the state of the call edge entering it.
type callNode struct {
	id     int
	ms     *msState
	stages [][]*callNode
	prio   int // the service's rank at ms (0 when ms is FCFS)
	edgeState
	// subtree: every microservice below and including this node is fluid this
	// minute, so an unsampled call collapses to one event.
	subtree bool
}

// svcState is one online service resolved against the runtime.
type svcState struct {
	name string
	gi   int // index in Config.Graphs and Runtime.svcs
	root *callNode
	res  *ServiceResult
}

// source is one arrival process of the run, open-loop or closed-loop, with
// the tier its requests carry and the SLA they are classified against.
// Runtime.sources holds the Config.Streams entries first, index-aligned,
// then one source per service that draws from its Config.Patterns entry.
// Every request carries its source's index and every source keeps its
// outcomes; only the Streams prefix is exported.
type source struct {
	sv      *svcState
	pattern workload.Pattern // nil for a closed-loop population
	users   int
	slaMs   float64
	hasSLA  bool
	res     StreamResult    // res.Tier is the tier its requests carry
	acc     streamMinuteAcc // the current minute's outcomes
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
	trees      *callTrees  // every svcState's callNode tree, from treeBufs

	dropMin map[int]bool
	// recording: the open minute's samples reach Result.Samples (see
	// recorded). Each minute tick refreshes it for the minute it opens.
	recording bool

	// tailScratch is where flushMinute selects each reservoir's P95, grown
	// once to the largest sample and reused every minute, and where finish
	// selects each service's end-to-end P95. It comes from scratchBufs and
	// goes back at finish.
	tailScratch *[]float64

	// jobFree recycles call frames; see Job for when a frame returns here.
	// The runtime is single-threaded (one engine, one goroutine), so a plain
	// slice suffices.
	jobFree []*Job

	nextTrace int64
	result    *Result

	jobsAllocated int
	jobsRecycled  int

	// res is the data-plane configuration with its defaults filled in;
	// breakers holds one per (service, microservice) when it arms them.
	res      Resilience
	breakers map[string]*breaker
	data     DataStats

	// crashKeys is where failContainer collects the frame-heap keys of a
	// crashed container's pending completions, reused across crashes.
	crashKeys []heapKey

	// sources are the run's arrival processes; see source.
	sources []source

	// Fluid fast-path runtime (nil outside hybrid mode).
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
	// Every table is sized up front: a Runtime is built per evaluation
	// window, so its growth steps would recur every window. A partition's
	// config keeps every profile, so its own containers bound its
	// microservices.
	containers := cfg.Cluster.Containers()
	nms := min(len(cfg.Profiles), len(containers))
	rt := &Runtime{
		cfg:        cfg,
		eng:        newEngine(cfg.NetworkDelayMs),
		rng:        stats.NewRNG(cfg.Seed),
		containers: make([]*containerState, 0, len(containers)),
		ms:         make(map[string]*msState, nms),
		msList:     make([]*msState, 0, nms),
		svcs:       make([]*svcState, 0, len(cfg.Graphs)),
		trees:      newCallTrees(cfg.Graphs),
		dropMin:    make(map[int]bool, len(cfg.DropMinutes)),
		result:     &Result{PerService: make(map[string]*ServiceResult, len(cfg.Graphs)), services: make([]*ServiceResult, 0, len(cfg.Graphs))},
	}
	rt.tailScratch = scratchBufs.Get()
	for _, m := range cfg.DropMinutes {
		rt.dropMin[m] = true
	}
	rt.recording = rt.recorded(0)
	rt.res = cfg.resilience().withDefaults()
	for _, c := range containers {
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
		cs := &containerState{c: c, ms: ms}
		rt.containers = append(rt.containers, cs)
		ms.states = append(ms.states, cs)
	}
	sort.Slice(rt.msList, func(i, j int) bool { return rt.msList[i].name < rt.msList[j].name })
	for _, ms := range rt.msList {
		ms.refreshUp()
	}
	for gi, g := range cfg.Graphs {
		lat := serviceLats.Get()
		lat.Reset(rt.rng.Split())
		res := &ServiceResult{lat: lat}
		rt.result.PerService[g.Service] = res
		rt.result.services = append(rt.result.services, res)
		rt.svcs = append(rt.svcs, &svcState{
			name: g.Service,
			gi:   gi,
			root: rt.resolve(g.Service, g.Root),
			res:  res,
		})
	}
	if cfg.fluid {
		rt.fl = newFluidState(rt)
	}
	rt.sources = make([]source, 0, len(cfg.Streams)+len(cfg.Graphs))
	streamed := make([]bool, len(rt.svcs))
	for _, s := range cfg.Streams {
		if s.Pattern != nil {
			// Each open-loop stream once split a latency reservoir's seed
			// off the run's RNG; the split stays so that no later draw
			// moves. Closed-loop streams never had a reservoir.
			rt.rng.Split()
		}
		gi := slices.IndexFunc(rt.svcs, func(sv *svcState) bool { return sv.name == s.Service })
		streamed[gi] = true
		rt.addSource(rt.svcs[gi], s)
	}
	for _, sv := range rt.svcs {
		if !streamed[sv.gi] {
			rt.addSource(sv, Stream{Tier: workload.TierStandard, Pattern: cfg.Patterns[sv.name]})
		}
	}
	if len(cfg.Streams) > 0 {
		rt.result.PerStream = make([]*StreamResult, len(cfg.Streams))
		for i := range rt.result.PerStream {
			rt.result.PerStream[i] = &rt.sources[i].res
		}
	}
	return rt, nil
}

// addSource appends stream s onto sv to the source table. Its requests are
// classified against s.SLA when set, else the service's SLA.
func (rt *Runtime) addSource(sv *svcState, s Stream) {
	sla, hasSLA := rt.cfg.SLAs[sv.name]
	if s.SLA != nil {
		sla, hasSLA = *s.SLA, true
	}
	rt.sources = append(rt.sources, source{
		sv: sv, pattern: s.Pattern, users: s.Users,
		slaMs: sla.Threshold, hasSLA: hasSLA,
		res: StreamResult{Tier: s.Tier},
	})
}

// callTrees is where resolve builds every service's callNode tree: one
// backing array each for the nodes, the stages and the stages' kids, sized
// from the graphs first so that no append moves what a pointer or sub-slice
// already holds.
type callTrees struct {
	nodes  []callNode
	stages [][]*callNode
	kids   []*callNode
}

// newCallTrees takes arrays for the call trees of graphs from treeBufs,
// replacing any that is too small by one of the exact size.
func newCallTrees(graphs []*graph.Graph) *callTrees {
	var nodes, stages, kids int
	var count func(n *graph.Node)
	count = func(n *graph.Node) {
		nodes++
		stages += len(n.Stages)
		for _, st := range n.Stages {
			kids += len(st)
			for _, c := range st {
				count(c)
			}
		}
	}
	for _, g := range graphs {
		count(g.Root)
	}
	tr := treeBufs.Get()
	if cap(tr.nodes) < nodes {
		tr.nodes = make([]callNode, 0, nodes)
	}
	if cap(tr.stages) < stages {
		tr.stages = make([][]*callNode, 0, stages)
	}
	if cap(tr.kids) < kids {
		tr.kids = make([]*callNode, 0, kids)
	}
	return tr
}

// release zeroes what the trees used, so the list holds no pointer into the
// finished run, and returns the arrays to treeBufs.
func (tr *callTrees) release() {
	clear(tr.nodes)
	clear(tr.stages)
	clear(tr.kids)
	tr.nodes, tr.stages, tr.kids = tr.nodes[:0], tr.stages[:0], tr.kids[:0]
	treeBufs.Put(tr)
}

// resolve builds the callNode tree under n for service svc into rt.trees. A
// node's stage slots, and a stage's kid slots, are taken before recursing, so
// each stays contiguous.
func (rt *Runtime) resolve(svc string, n *graph.Node) *callNode {
	tr := rt.trees
	ms := rt.ms[n.Microservice]
	tr.nodes = append(tr.nodes, callNode{id: n.ID, ms: ms, prio: rt.cfg.Priorities[ms.name][svc], edgeState: rt.newEdge(svc, n)})
	cn := &tr.nodes[len(tr.nodes)-1]
	s0 := len(tr.stages)
	tr.stages = tr.stages[:s0+len(n.Stages)]
	cn.stages = tr.stages[s0:len(tr.stages):len(tr.stages)]
	for si, st := range n.Stages {
		k0 := len(tr.kids)
		tr.kids = tr.kids[:k0+len(st)]
		kids := tr.kids[k0:len(tr.kids):len(tr.kids)]
		for i, c := range st {
			kids[i] = rt.resolve(svc, c)
		}
		cn.stages[si] = kids
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

	// Start every source, each on its own split RNG, in graph order and
	// then source order: the order the splits have always been taken in.
	order := make([]int, len(rt.sources))
	for si := range order {
		order[si] = si
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return rt.sources[a].sv.gi - rt.sources[b].sv.gi
	})
	for _, si := range order {
		if rt.sources[si].pattern != nil {
			rt.scheduleArrivals(si, warmMs)
		} else {
			rt.startClosedLoop(si, endMs, warmMs)
		}
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

	// Minute ticks for profiling aggregation. Unrecorded minutes are flushed
	// (to reset the accumulators) but not recorded.
	for m := 0; m < int(rt.cfg.DurationMin); m++ {
		m := m
		rt.eng.At(float64(m+1)*60_000, func() {
			rt.flushMinute(m, rt.recording)
			rt.recording = rt.recorded(m + 1)
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

// finish folds the accumulators into the Result after the last advanceTo and
// returns the run's pooled buffers but the per-service reservoirs, which the
// Result keeps until Release. The runtime runs nothing after it.
func (rt *Runtime) finish() *Result {
	rt.result.SimulatedMin = rt.cfg.DurationMin - rt.cfg.WarmupMin
	for _, sv := range rt.svcs {
		sv.res.p95 = sv.res.lat.QuantileScratch(0.95, rt.tailScratch)
	}
	for _, ms := range rt.msList {
		if ms.lat != nil {
			minuteLats.Put(ms.lat)
			ms.lat = nil
		}
	}
	scratchBufs.Put(rt.tailScratch)
	rt.trees.release()
	rt.tailScratch, rt.trees = nil, nil
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

// scheduleArrivals starts open-loop source si: a closure that keeps exactly
// one pending arrival event on the callback heap and, when it fires, pulls
// the next time from the source's workload.Arrivals stream and re-arms
// itself for it. The stream draws only from its own rt.rng.Split(), taken
// here in setup order, so the events that run between two of its minutes
// cannot perturb it, nor it them. In hybrid mode a copy of the split's state
// is drained first for the fluid path's per-minute counts.
func (rt *Runtime) scheduleArrivals(si int, warmMs float64) {
	src := &rt.sources[si]
	r := rt.rng.Split()
	if rt.fl != nil {
		ahead := *r
		rt.fl.noteArrivals(src.sv.name, workload.NewArrivals(src.pattern, &ahead, 0, rt.cfg.DurationMin))
	}
	arr := workload.NewArrivals(src.pattern, r, 0, rt.cfg.DurationMin)
	t, ok := arr.Next()
	if !ok {
		return
	}
	var walk func()
	walk = func() {
		now := t
		if t, ok = arr.Next(); ok {
			rt.eng.At(t, walk)
		}
		rt.startRequest(si, now >= warmMs, nil)
	}
	rt.eng.At(t, walk)
}

// startRequest begins one end-to-end request issued by source si; then, if
// not nil, runs when the request ends (the closed-loop client). The request
// carries the source's SLO tier down the whole call tree, and its outcome
// is recorded on the source as well as on the service.
func (rt *Runtime) startRequest(si int, measured bool, then func()) {
	rt.nextTrace++
	t0 := rt.eng.Now()
	// A trace starting in a dropped minute is lost before it reaches the
	// collector (an observability gap).
	sampled := rt.cfg.Observer != nil && !rt.dropMin[int(t0/60_000)] &&
		traceSampled(rt.cfg.Seed, rt.nextTrace, rt.cfg.SampleRate)

	src := &rt.sources[si]
	src.acc.issued++
	sv := src.sv

	f := rt.newFrame()
	f.Service, f.Tier, f.node = sv.name, src.res.Tier, sv.root
	f.traceID, f.sampled = rt.nextTrace, sampled
	f.t0, f.src, f.measured, f.then = t0, si, measured, then
	// The request deadline: derived from the SLA when configured, else the
	// absolute request timeout. 0 = unbounded.
	if src.hasSLA && rt.res.TimeoutSLAMultiple > 0 {
		f.edgeDeadline = t0 + rt.res.TimeoutSLAMultiple*src.slaMs
	} else if rt.res.RequestTimeoutMs > 0 {
		f.edgeDeadline = t0 + rt.res.RequestTimeoutMs
	}
	f.call()
}

// traceSalt keys the sampling hash apart from NewRNG's seed words, which are
// outputs 0–3 of the same splitmix64 sequence.
const traceSalt = 0x243f6a8885a308d3

// traceSampled decides whether trace id of a run seeded with seed is sampled:
// the top 53 bits of a splitmix64 hash of (seed, id), read as a uniform in
// [0,1), fall below rate. The decision depends on the trace alone, as
// OpenTelemetry's TraceIdRatioBased sampler and Dapper's per-trace sampling
// do, never on a draw from the run's RNG, so attaching an observer leaves an
// exact-engine run as it was. Rate 1 samples every trace.
func traceSampled(seed uint64, id int64, rate float64) bool {
	return float64(stats.Mix(seed^traceSalt, uint64(id))>>11)*(1.0/(1<<53)) < rate
}

// requestDone records a request's success; it fires at the client-receive
// instant of root frame f.
func (rt *Runtime) requestDone(f *Job) {
	src := &rt.sources[f.src]
	lat := rt.eng.Now() - f.t0
	slow := src.hasSLA && lat > src.slaMs
	if f.measured {
		res := src.sv.res
		res.Count++
		res.lat.Add(lat)
		src.res.Count++
		if slow {
			res.Violations++
			src.res.Violations++
		}
	}
	src.acc.completed++
	if slow {
		src.acc.slow++
	} else {
		src.acc.good++
	}
	if f.then != nil {
		f.then()
	}
}

// requestFailed records a request's outright failure.
func (rt *Runtime) requestFailed(f *Job, err CallErr) {
	src := &rt.sources[f.src]
	if f.measured {
		src.sv.res.Errors++
		src.res.Errors++
	}
	src.acc.errors++
	if err == ErrShed {
		src.acc.shed++
	}
	if f.then != nil {
		f.then()
	}
}

// startClosedLoop starts closed-loop source si: each of its users issues a
// request, waits for the response, thinks for an exponential time, and
// repeats until the nominal end of the run.
func (rt *Runtime) startClosedLoop(si int, endMs, warmMs float64) {
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
		rt.startRequest(si, rt.eng.Now() >= warmMs, rethink)
	}
	for u := 0; u < rt.sources[si].users; u++ {
		// Staggered starts spread the initial burst over one think time.
		rt.eng.At(rng.Float64()*think, userLoop)
	}
}

// kick starts queued work on free threads (after a completion or recovery).
// Jobs whose client attempt already settled (the per-attempt timeout fired
// while they queued) are dropped without executing — the server side of
// deadline propagation.
func (rt *Runtime) kick(cs *containerState) {
	for cs.queue.n > 0 && cs.busy < cs.c.Spec.Threads {
		next := cs.queue.pop(rt.cfg.Delta, rt.rng)
		if next.settled {
			rt.data.DeadlineSkips++
		} else {
			rt.startJob(cs, next)
		}
		next.unref() // the queue's hold
	}
}

// failContainer marks a container down, re-routes its queued work and
// severs its in-flight work: each processing call fails at the crash instant
// with the retryable ErrCrashed, and its completion event, still pending,
// becomes stale.
func (rt *Runtime) failContainer(cs *containerState) {
	cs.down = true
	cs.ms.refreshUp()
	queued := cs.queue.drain()
	cs.busy = 0
	rt.updateUsage(cs)
	for _, k := range rt.inflight(cs) {
		job := rt.eng.slots[k.slot].f
		rt.data.CrashFailures++
		job.crashed = true
		job.sendFailure(ErrCrashed)
	}
	for _, job := range queued {
		job.arrive()
		job.unref() // the old queue's hold
	}
}

// inflight returns the frame-heap keys of the calls processing on cs in the
// order they started: every call in service has exactly one pending
// evComplete, pushed when it started, so its seq is its start order. A call
// a previous crash of cs already failed is not in flight. A crash is rare
// next to a completion, so it scans the heap rather than have every start
// and completion keep a list.
func (rt *Runtime) inflight(cs *containerState) []heapKey {
	keys := rt.crashKeys[:0]
	for _, k := range rt.eng.events {
		if p := &rt.eng.slots[k.slot]; p.kind == evComplete && p.f.cs == cs && !p.f.crashed {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b heapKey) int { return cmp.Compare(a.seq, b.seq) })
	rt.crashKeys = keys
	return keys
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
	job.after(base*inflation, evComplete)
}

// updateUsage reflects the container's instantaneous thread occupancy into
// cluster CPU-usage accounting, which in turn feeds host utilization and the
// interference inflation of later jobs (the dynamic feedback loop).
func (rt *Runtime) updateUsage(cs *containerState) {
	frac := float64(cs.busy) / float64(cs.c.Spec.Threads)
	cs.c.SetCPUUsage(frac * cs.c.Spec.CPU)
}

// recorded reports whether minute m's samples reach Result.Samples: it is
// past the warm-up, not dropped, and closed by a tick before the nominal end
// (the trailing partial minute and the drain have none).
func (rt *Runtime) recorded(m int) bool {
	return m >= int(math.Ceil(rt.cfg.WarmupMin)) && !rt.dropMin[m] && m < int(rt.cfg.DurationMin)
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
	// The minute's first observation seeds the reservoir from the run's RNG.
	// An unrecorded minute keeps no sample but takes the word the split
	// would, so every later draw stays where it was.
	if !ms.drawn {
		ms.drawn = true
		switch {
		case !rt.recording:
			rt.rng.Uint64()
		case ms.lat == nil:
			ms.lat = minuteLats.Get()
			fallthrough
		default:
			ms.lat.Reset(rt.rng.Split())
		}
	}
	if rt.recording {
		ms.lat.Add(latency)
	}
}

// flushMinute emits MinuteSamples for minute m (when record is true) and
// resets the per-minute accumulators either way.
func (rt *Runtime) flushMinute(m int, record bool) {
	for _, ms := range rt.msList {
		calls := ms.fluidCalls
		ms.fluidCalls, ms.drawn = 0, false
		for _, cs := range ms.states {
			calls += cs.minuteCalls
			cs.minuteCalls = 0
		}
		if !record {
			continue
		}
		var cpu, mem float64
		for _, cs := range ms.states {
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
		}
		if rv := ms.lat; rv != nil && rv.Seen() > 0 {
			sample.TailMs = rv.QuantileScratch(0.95, rt.tailScratch)
			rv.Reset(nil) // re-seeded by the next recorded minute's first observation
		}
		if ms.fluid && calls > 0 {
			// Fluid minutes synthesize the tail from the analytic model that
			// served the calls.
			sample.TailMs = ms.model.tailMs
		}
		rt.result.Samples = append(rt.result.Samples, sample)
	}
	for si := range rt.sources {
		acc := rt.sources[si].acc
		rt.sources[si].acc = streamMinuteAcc{}
		if record && si < len(rt.cfg.Streams) {
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
