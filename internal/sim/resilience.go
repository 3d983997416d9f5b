package sim

import (
	"fmt"

	"erms/internal/graph"
	"erms/internal/workload"
)

// Resilience enables the data-plane fault model (§DESIGN 4d): per-call
// timeout budgets with deadline propagation, budgeted retries, per-(service,
// microservice) circuit breaking, and optional admission control. A nil
// Config.Resilience (the default) keeps the historical infallible data plane
// — every call completes, runs are byte-identical to earlier releases, and
// the hot path performs no resilience bookkeeping.
type Resilience struct {
	// TimeoutSLAMultiple derives each request's end-to-end deadline from its
	// service SLA: deadline = multiple × SLA threshold. 0 falls back to
	// RequestTimeoutMs; services without an SLA use RequestTimeoutMs too.
	TimeoutSLAMultiple float64
	// RequestTimeoutMs is the absolute end-to-end deadline for services
	// without an SLA-derived one. 0 means no request deadline.
	RequestTimeoutMs float64
	// AttemptTimeoutMs is the default per-attempt timeout on every call edge
	// (overridable per edge via graph.EdgePolicy). 0 bounds attempts only by
	// the propagated request deadline.
	AttemptTimeoutMs float64
	// MaxAttempts caps attempts per call edge (first call + retries).
	// Values below 1 (including the zero value) mean 1: no retries.
	MaxAttempts int
	// RetryBackoffMs is the base retry backoff; attempt k waits
	// RetryBackoffMs·2^k·(1 + RetryJitter·U[0,1)). Default 1.
	RetryBackoffMs float64
	// RetryJitter is the jitter fraction in [0,1] applied to backoff.
	RetryJitter float64
	// RetryBudget is the token-bucket earn rate of each call edge: every
	// success earns RetryBudget tokens (e.g. 0.1 ≈ "retries may add 10% to
	// the success load") and every retry spends one. 0 disables the budget —
	// retries are unbounded, which makes naive retry amplification
	// representable.
	RetryBudget float64
	// RetryBurst caps the token bucket (and is its initial fill). Default 10.
	RetryBurst float64
	// BreakerFailureRate arms a circuit breaker per (service, microservice)
	// pair: the breaker opens when the failure fraction over its sliding
	// window reaches this rate. 0 disables circuit breaking.
	BreakerFailureRate float64
	// BreakerWindow is the sliding window size in call outcomes. Default 32.
	BreakerWindow int
	// BreakerMinSamples is the minimum outcomes in the window before the
	// breaker may trip. Default 10.
	BreakerMinSamples int
	// BreakerCooldownMs is how long an open breaker rejects calls before
	// transitioning to half-open. Default 500.
	BreakerCooldownMs float64
	// BreakerProbes is the number of trial calls admitted while half-open;
	// the first success closes the breaker, a failure re-opens it. Default 1.
	BreakerProbes int
	// Shed enables admission control: a call is rejected at enqueue when its
	// estimated queue wait makes the deadline unreachable, or exceeds
	// ShedMaxWaitMs.
	Shed bool
	// ShedMaxWaitMs is an absolute bound on estimated queue wait (0 = only
	// the deadline-derived bound sheds).
	ShedMaxWaitMs float64
	// TierShedFactors scales admission-control aggressiveness per SLO tier,
	// indexed by workload.Tier: a job's estimated queue wait is multiplied by
	// its tier's factor before the shed comparisons, so tiers with a factor
	// above 1 are shed earlier (they "see" a longer queue) and tiers below 1
	// hold on longer. The all-zero value takes the documented defaults
	// {critical: 0.25, standard: 1, sheddable: 2.5, batch: 4}; standard's
	// factor of exactly 1 keeps runs without tiered streams byte-identical
	// to the historical shed policy.
	TierShedFactors [workload.NumTiers]float64
}

// withDefaults returns a copy with zero values replaced by documented
// defaults.
func (r Resilience) withDefaults() Resilience {
	if r.MaxAttempts < 1 {
		r.MaxAttempts = 1
	}
	if r.RetryBackoffMs <= 0 {
		r.RetryBackoffMs = 1
	}
	if r.RetryBurst <= 0 {
		r.RetryBurst = 10
	}
	if r.BreakerWindow <= 0 {
		r.BreakerWindow = 32
	}
	if r.BreakerMinSamples <= 0 {
		r.BreakerMinSamples = 10
	}
	if r.BreakerCooldownMs <= 0 {
		r.BreakerCooldownMs = 500
	}
	if r.BreakerProbes <= 0 {
		r.BreakerProbes = 1
	}
	if r.TierShedFactors == ([workload.NumTiers]float64{}) {
		r.TierShedFactors = DefaultTierShedFactors
	}
	return r
}

// DefaultTierShedFactors is the default per-tier admission-control scaling:
// batch traffic is shed ~4× earlier than standard, sheddable ~2.5× earlier,
// and critical holds on 4× longer. Standard is exactly 1 so untiered runs
// match the historical shed policy bit for bit.
var DefaultTierShedFactors = [workload.NumTiers]float64{
	workload.TierCritical:  0.25,
	workload.TierStandard:  1,
	workload.TierSheddable: 2.5,
	workload.TierBatch:     4,
}

// validate rejects out-of-range resilience parameters.
func (r *Resilience) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TimeoutSLAMultiple", r.TimeoutSLAMultiple}, {"RequestTimeoutMs", r.RequestTimeoutMs},
		{"AttemptTimeoutMs", r.AttemptTimeoutMs}, {"RetryBackoffMs", r.RetryBackoffMs},
		{"RetryJitter", r.RetryJitter}, {"RetryBudget", r.RetryBudget}, {"RetryBurst", r.RetryBurst},
		{"BreakerFailureRate", r.BreakerFailureRate}, {"BreakerCooldownMs", r.BreakerCooldownMs},
		{"ShedMaxWaitMs", r.ShedMaxWaitMs},
	} {
		if !finite(f.v) {
			return fmt.Errorf("sim: Resilience.%s %v must be finite", f.name, f.v)
		}
	}
	switch {
	case r.TimeoutSLAMultiple < 0:
		return fmt.Errorf("sim: Resilience.TimeoutSLAMultiple %v must be >= 0", r.TimeoutSLAMultiple)
	case r.RequestTimeoutMs < 0:
		return fmt.Errorf("sim: Resilience.RequestTimeoutMs %v must be >= 0", r.RequestTimeoutMs)
	case r.AttemptTimeoutMs < 0:
		return fmt.Errorf("sim: Resilience.AttemptTimeoutMs %v must be >= 0", r.AttemptTimeoutMs)
	case r.RetryJitter < 0 || r.RetryJitter > 1:
		return fmt.Errorf("sim: Resilience.RetryJitter %v must be in [0,1]", r.RetryJitter)
	case r.RetryBudget < 0:
		return fmt.Errorf("sim: Resilience.RetryBudget %v must be >= 0", r.RetryBudget)
	case r.BreakerFailureRate < 0 || r.BreakerFailureRate > 1:
		return fmt.Errorf("sim: Resilience.BreakerFailureRate %v must be in [0,1]", r.BreakerFailureRate)
	case r.ShedMaxWaitMs < 0:
		return fmt.Errorf("sim: Resilience.ShedMaxWaitMs %v must be >= 0", r.ShedMaxWaitMs)
	}
	for t, f := range r.TierShedFactors {
		if !finite(f) {
			return fmt.Errorf("sim: Resilience.TierShedFactors[%s] %v must be finite", workload.Tier(t), f)
		}
		if f < 0 {
			return fmt.Errorf("sim: Resilience.TierShedFactors[%s] %v must be >= 0", workload.Tier(t), f)
		}
	}
	return nil
}

// CallErr classifies why a call edge failed. ErrNone (the zero value) is
// success.
type CallErr int

// Call outcomes.
const (
	ErrNone CallErr = iota
	// ErrTimeout: the per-attempt timeout expired before the response.
	ErrTimeout
	// ErrDeadline: the propagated request deadline had already expired, so
	// the call failed without executing.
	ErrDeadline
	// ErrCrashed: the serving container crashed with the call in flight.
	ErrCrashed
	// ErrUnavailable: every container of the microservice was down.
	ErrUnavailable
	// ErrBreakerOpen: short-circuited by an open circuit breaker.
	ErrBreakerOpen
	// ErrShed: rejected by admission control at enqueue.
	ErrShed
)

// String names the outcome.
func (e CallErr) String() string {
	switch e {
	case ErrNone:
		return "ok"
	case ErrTimeout:
		return "timeout"
	case ErrDeadline:
		return "deadline"
	case ErrCrashed:
		return "crashed"
	case ErrUnavailable:
		return "unavailable"
	case ErrBreakerOpen:
		return "breaker-open"
	case ErrShed:
		return "shed"
	default:
		return fmt.Sprintf("callerr(%d)", int(e))
	}
}

// retryable reports whether a later attempt could plausibly succeed. Expired
// deadlines cannot recover and retrying into an open breaker would burn
// attempts without touching a server.
func (e CallErr) retryable() bool {
	switch e {
	case ErrTimeout, ErrCrashed, ErrUnavailable, ErrShed:
		return true
	}
	return false
}

// DataStats aggregates the data-plane resilience counters of one run. All
// zeros when resilience is disabled.
type DataStats struct {
	// Attempts counts call attempts issued (first calls + retries).
	Attempts int
	// Timeouts counts per-attempt timeouts that fired.
	Timeouts int
	// Retries counts re-issued attempts.
	Retries int
	// RetryBudgetExhausted counts retries suppressed by an empty token
	// bucket.
	RetryBudgetExhausted int
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int
	// BreakerShortCircuits counts calls rejected by an open breaker.
	BreakerShortCircuits int
	// Shed counts calls rejected by admission control.
	Shed int
	// ShedByTier splits Shed by the SLO tier of the shed call, indexed by
	// workload.Tier. Untiered runs accumulate everything under
	// workload.TierStandard.
	ShedByTier [workload.NumTiers]int
	// CrashFailures counts in-flight calls failed by a container crash.
	CrashFailures int
	// DeadlineSkips counts calls dropped without executing because the
	// propagated deadline had expired (client side) or the client had
	// already given up while the call queued (server side).
	DeadlineSkips int
	// Unavailable counts calls failed fast because zero containers of the
	// target microservice were up.
	Unavailable int
}

// edgeState is the per-call-edge resilience runtime: the resolved policy and
// the retry-budget token bucket.
type edgeState struct {
	timeoutMs   float64 // per-attempt timeout (0 = request deadline only)
	maxAttempts int
	earn        float64 // tokens per success (0 = unbounded retries)
	burst       float64
	tokens      float64
	breaker     *breaker // shared per (service, microservice); nil when off
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-(service, microservice) circuit breaker: closed → open
// when the failure fraction over a sliding window of outcomes reaches the
// threshold → half-open probes after a cooldown → closed on probe success.
type breaker struct {
	failureRate float64
	minSamples  int
	cooldownMs  float64
	maxProbes   int

	window []bool // ring buffer of outcomes; true = failure
	idx    int
	filled int
	fails  int

	state    breakerState
	openedAt float64
	probes   int
}

func newBreaker(r *Resilience) *breaker {
	return &breaker{
		failureRate: r.BreakerFailureRate,
		minSamples:  r.BreakerMinSamples,
		cooldownMs:  r.BreakerCooldownMs,
		maxProbes:   r.BreakerProbes,
		window:      make([]bool, r.BreakerWindow),
	}
}

// allow reports whether a call may be issued now, transitioning open →
// half-open after the cooldown and admitting up to maxProbes trial calls.
func (b *breaker) allow(now float64) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now-b.openedAt < b.cooldownMs {
			return false
		}
		b.state = breakerHalfOpen
		b.probes = 1
		return true
	default: // half-open
		if b.probes < b.maxProbes {
			b.probes++
			return true
		}
		return false
	}
}

// record feeds one executed attempt's outcome into the breaker.
// Short-circuited calls are not recorded — they carry no information about
// the server. Outcomes settling while the breaker is open (attempts launched
// before it tripped) are ignored.
func (b *breaker) record(now float64, failed bool, data *DataStats) {
	switch b.state {
	case breakerOpen:
		return
	case breakerHalfOpen:
		if failed {
			b.open(now, data)
		} else {
			b.state = breakerClosed
			b.reset()
		}
		return
	}
	if b.window[b.idx] && b.filled == len(b.window) {
		b.fails--
	}
	b.window[b.idx] = failed
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if failed {
		b.fails++
	}
	if b.filled >= b.minSamples && float64(b.fails) >= b.failureRate*float64(b.filled) {
		b.open(now, data)
	}
}

func (b *breaker) open(now float64, data *DataStats) {
	b.state = breakerOpen
	b.openedAt = now
	b.reset()
	data.BreakerOpens++
}

func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.fails, b.probes = 0, 0, 0, 0
}

// newEdge resolves the policy of the call edge entering node n of service
// svc's graph; the breaker is shared per (service, microservice). Called once
// per node at construction when resilience is enabled.
func (rt *Runtime) newEdge(svc string, n *graph.Node) *edgeState {
	e := &edgeState{
		timeoutMs:   rt.res.AttemptTimeoutMs,
		maxAttempts: rt.res.MaxAttempts,
		earn:        rt.res.RetryBudget,
		burst:       rt.res.RetryBurst,
		tokens:      rt.res.RetryBurst,
	}
	if p := n.Policy; p != nil {
		if p.TimeoutMs > 0 {
			e.timeoutMs = p.TimeoutMs
		} else if p.TimeoutMs < 0 {
			e.timeoutMs = 0
		}
		if p.MaxAttempts != 0 {
			e.maxAttempts = p.MaxAttempts
			if e.maxAttempts < 1 {
				e.maxAttempts = 1
			}
		}
	}
	if rt.res.BreakerFailureRate > 0 {
		key := svc + "\x00" + n.Microservice
		br, ok := rt.breakers[key]
		if !ok {
			br = newBreaker(rt.res)
			rt.breakers[key] = br
		}
		e.breaker = br
	}
	return e
}

// shouldShed is the admission-control decision at enqueue: reject when the
// estimated queue wait already makes the job's deadline unreachable, or
// exceeds the absolute ShedMaxWaitMs bound. The wait estimate is scaled by
// the job's SLO-tier factor before both comparisons, which is what makes
// shedding prefer batch and sheddable traffic over standard and critical:
// under the same queue, a batch job sees a 4× wait and folds early while a
// critical job sees a quarter of it and is admitted.
func (rt *Runtime) shouldShed(cs *containerState, job *Job) bool {
	if !rt.res.Shed {
		return false
	}
	base := cs.ms.baseMs
	wait := float64(len(cs.queue)) * base / float64(cs.c.Spec.Threads)
	if job.Tier.Valid() {
		wait *= rt.res.TierShedFactors[job.Tier]
	}
	if rt.res.ShedMaxWaitMs > 0 && wait > rt.res.ShedMaxWaitMs {
		return true
	}
	return job.deadline > 0 && rt.eng.Now()+wait+base > job.deadline
}
