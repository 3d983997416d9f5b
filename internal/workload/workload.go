// Package workload generates the request streams and background interference
// that drive the simulated cluster: static Poisson workloads, Alibaba-style
// diurnal dynamic workloads, replayed traces, and iBench-style interference
// injection. It also defines SLA specifications for online services.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"erms/internal/recycle"
	"erms/internal/stats"
)

// SLA is the service-level agreement for one online service: the tail
// percentile of end-to-end latency must stay below Threshold.
type SLA struct {
	Service string
	// Threshold is the end-to-end latency bound in milliseconds.
	Threshold float64
	// Percentile is the tail percentile the bound applies to (e.g. 0.95).
	Percentile float64
}

// Validate checks the SLA for well-formedness.
func (s SLA) Validate() error {
	if s.Service == "" {
		return errors.New("workload: SLA with empty service")
	}
	if s.Threshold <= 0 {
		return fmt.Errorf("workload: SLA threshold %v must be positive", s.Threshold)
	}
	if s.Percentile <= 0 || s.Percentile >= 1 {
		return fmt.Errorf("workload: SLA percentile %v must be in (0,1)", s.Percentile)
	}
	return nil
}

// P95SLA builds the common 95th-percentile SLA used throughout the paper.
func P95SLA(service string, thresholdMs float64) SLA {
	return SLA{Service: service, Threshold: thresholdMs, Percentile: 0.95}
}

// Tier is the SLO tier of a client cohort: how much the platform is willing
// to sacrifice this traffic when capacity runs short. Admission control sheds
// the lower tiers (batch first, then sheddable) before touching standard
// traffic, and touches critical traffic last of all.
type Tier int

// SLO tiers, ordered from most to least protected.
const (
	// TierCritical: revenue/safety traffic; shed only when nothing else is
	// left to shed.
	TierCritical Tier = iota
	// TierStandard: the default tier; historical behaviour is unchanged for
	// standard traffic.
	TierStandard
	// TierSheddable: best-effort interactive traffic; preferred shedding
	// victim ahead of standard.
	TierSheddable
	// TierBatch: offline/bulk traffic; first to go under pressure.
	TierBatch

	// NumTiers is the number of SLO tiers (for per-tier accumulator arrays).
	NumTiers = 4
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierCritical:
		return "critical"
	case TierStandard:
		return "standard"
	case TierSheddable:
		return "sheddable"
	case TierBatch:
		return "batch"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Valid reports whether t is one of the defined tiers.
func (t Tier) Valid() bool { return t >= TierCritical && t <= TierBatch }

// ParseTier maps a tier name to its Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "critical":
		return TierCritical, nil
	case "standard":
		return TierStandard, nil
	case "sheddable":
		return TierSheddable, nil
	case "batch":
		return TierBatch, nil
	}
	return 0, fmt.Errorf("workload: unknown SLO tier %q (want critical, standard, sheddable, or batch)", s)
}

// Tiers lists the tiers in protection order (critical first).
func Tiers() []Tier { return []Tier{TierCritical, TierStandard, TierSheddable, TierBatch} }

// Pattern yields the offered load of one service as a function of time.
type Pattern interface {
	// RateAt returns the arrival rate in requests per minute at time t
	// (minutes since the start of the experiment).
	RateAt(t float64) float64
	// String describes the pattern.
	String() string
}

// Static is a constant-rate pattern.
type Static struct {
	// Rate is in requests per minute.
	Rate float64
}

// RateAt returns the constant rate.
func (s Static) RateAt(float64) float64 { return s.Rate }

func (s Static) String() string { return fmt.Sprintf("Static(%g req/min)", s.Rate) }

// Diurnal is a day-night pattern: a sinusoid between Base and Peak with the
// given period, plus optional short-lived spikes. This is the synthetic
// substitute for Alibaba's dynamic production workloads (§6.3.2).
type Diurnal struct {
	Base      float64 // trough rate, req/min
	Peak      float64 // crest rate, req/min
	PeriodMin float64 // length of one cycle in minutes (1440 = one day)
	PhaseMin  float64 // phase shift in minutes
	// Spikes lists transient surges layered on top of the sinusoid.
	Spikes []Spike
}

// Spike is a short surge: between Start and Start+Duration the rate is
// multiplied by Factor.
type Spike struct {
	Start    float64
	Duration float64
	Factor   float64
}

// RateAt evaluates the diurnal curve.
func (d Diurnal) RateAt(t float64) float64 {
	period := d.PeriodMin
	if period <= 0 {
		period = 1440
	}
	mid := (d.Base + d.Peak) / 2
	amp := (d.Peak - d.Base) / 2
	rate := mid + amp*math.Sin(2*math.Pi*(t+d.PhaseMin)/period)
	for _, s := range d.Spikes {
		if t >= s.Start && t < s.Start+s.Duration {
			rate *= s.Factor
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}

func (d Diurnal) String() string {
	return fmt.Sprintf("Diurnal(base=%g, peak=%g, period=%gmin, %d spikes)", d.Base, d.Peak, d.PeriodMin, len(d.Spikes))
}

// Trace replays a recorded rate series with piece-wise-linear interpolation;
// each sample covers StepMin minutes.
type Trace struct {
	Rates   []float64
	StepMin float64
	Name    string
}

// RateAt interpolates the trace; times beyond the trace hold the last value.
func (tr Trace) RateAt(t float64) float64 {
	if len(tr.Rates) == 0 {
		return 0
	}
	step := tr.StepMin
	if step <= 0 {
		step = 1
	}
	pos := t / step
	if pos <= 0 {
		return tr.Rates[0]
	}
	lo := int(pos)
	if lo >= len(tr.Rates)-1 {
		return tr.Rates[len(tr.Rates)-1]
	}
	frac := pos - float64(lo)
	return tr.Rates[lo]*(1-frac) + tr.Rates[lo+1]*frac
}

func (tr Trace) String() string {
	return fmt.Sprintf("Trace(%q, %d samples, step=%gmin)", tr.Name, len(tr.Rates), tr.StepMin)
}

// AlibabaLikeTrace synthesizes a dynamic workload trace with the shape of the
// Alibaba production workloads used in §6.3.2: a diurnal swell, minute-level
// jitter, and a few sharp surges. The result is deterministic for a given
// seed.
func AlibabaLikeTrace(seed uint64, minutes int, base, peak float64) Trace {
	r := stats.NewRNG(seed)
	rates := make([]float64, minutes)
	d := Diurnal{Base: base, Peak: peak, PeriodMin: float64(minutes)}
	// Place 2-4 surges at random positions.
	nSpikes := 2 + r.Intn(3)
	for i := 0; i < nSpikes; i++ {
		d.Spikes = append(d.Spikes, Spike{
			Start:    r.Float64() * float64(minutes) * 0.9,
			Duration: 3 + r.Float64()*8,
			Factor:   1.3 + r.Float64()*0.7,
		})
	}
	for m := 0; m < minutes; m++ {
		jitter := 1 + 0.08*r.NormFloat64()
		if jitter < 0.5 {
			jitter = 0.5
		}
		rates[m] = d.RateAt(float64(m)) * jitter
	}
	return Trace{Rates: rates, StepMin: 1, Name: fmt.Sprintf("alibaba-like-%d", seed)}
}

// Arrivals streams Poisson arrival timestamps (in milliseconds since the
// epoch of the window) for a pattern over [startMin, endMin) minutes, in
// ascending order. The rate is sampled per minute, matching how the tracing
// stack aggregates workloads, and the stream generates one minute at a time:
// a Poisson count, that many uniforms, a sort. Its buffer holds one minute,
// sized to the largest minute seen and reused, so a window's arrivals cost
// one minute of memory rather than the whole window. The buffer comes from a
// list shared by every stream and goes back to it when Next runs out, so a
// stream started after another drained reuses what that one grew.
//
// The sequence is the one sorting every minute's times together would give:
// minute m's times lie in [m, m+1) minutes (at most m+1 after rounding) and
// the next minute's start at m+1, so sorted minutes concatenate to the
// sorted whole. The stream draws from r alone and in a fixed order, so when
// Next is called does not change what it returns.
type Arrivals struct {
	p                Pattern
	r                *stats.RNG
	m                float64 // next minute to generate
	startMin, endMin float64
	buf              []float64 // the current minute's times, sorted
	next             int       // index of the next time in buf
	// pooled is where buf goes back to minuteBufs once the stream is
	// exhausted; nil after.
	pooled *[]float64
}

// minuteBufs recycles the minute buffers of exhausted streams.
var minuteBufs = recycle.List[[]float64]{New: func() *[]float64 { return new([]float64) }}

// NewArrivals returns the arrival stream of p over [startMin, endMin),
// drawing from r, which it then owns.
func NewArrivals(p Pattern, r *stats.RNG, startMin, endMin float64) *Arrivals {
	buf := minuteBufs.Get()
	return &Arrivals{p: p, r: r, m: math.Floor(startMin), startMin: startMin, endMin: endMin,
		buf: (*buf)[:0], pooled: buf}
}

// Next returns the next arrival time in milliseconds; ok is false once the
// window is exhausted, when the stream returns its buffer to minuteBufs.
func (a *Arrivals) Next() (ms float64, ok bool) {
	for a.next == len(a.buf) {
		if !(a.m < a.endMin) {
			if a.pooled != nil {
				*a.pooled = a.buf // truncated by the NewArrivals that takes it
				minuteBufs.Put(a.pooled)
				a.buf, a.next, a.pooled = nil, 0, nil
			}
			return 0, false
		}
		a.fill()
	}
	ms = a.buf[a.next]
	a.next++
	return ms, true
}

// fill generates minute a.m into a.buf and advances a.m.
func (a *Arrivals) fill() {
	m := a.m
	a.m++
	a.buf, a.next = a.buf[:0], 0
	lo := math.Max(m, a.startMin)
	hi := math.Min(m+1, a.endMin)
	if hi <= lo {
		return
	}
	rate := a.p.RateAt(m) * (hi - lo) // expected arrivals in this slice
	n := stats.Poisson(a.r, rate)
	if n > cap(a.buf) {
		a.buf = make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		tMin := lo + a.r.Float64()*(hi-lo)
		a.buf = append(a.buf, tMin*60_000) // ms
	}
	sort.Float64s(a.buf)
}

// Interference is a background load level on a host, expressed as CPU and
// memory utilization fractions contributed by colocated batch jobs. It is
// the synthetic stand-in for iBench workload injection (§6.2, §6.4.3).
type Interference struct {
	CPU float64 // fraction of host CPU consumed by background work
	Mem float64 // fraction of host memory consumed by background work
}

// Add returns the component-wise sum of two interference levels (a transient
// spike stacked on the steady background; callers clamp as needed).
func (i Interference) Add(o Interference) Interference {
	return Interference{CPU: i.CPU + o.CPU, Mem: i.Mem + o.Mem}
}

// Clamp bounds both utilizations to [0, max].
func (i Interference) Clamp(max float64) Interference {
	c := i
	if c.CPU < 0 {
		c.CPU = 0
	}
	if c.Mem < 0 {
		c.Mem = 0
	}
	if c.CPU > max {
		c.CPU = max
	}
	if c.Mem > max {
		c.Mem = max
	}
	return c
}

// InterferenceLevels are the canonical profiling levels, spanning the host
// conditions of Fig. 3 (e.g. 47% CPU / 35% mem, 27% CPU / 62% mem).
var InterferenceLevels = []Interference{
	{CPU: 0.10, Mem: 0.10},
	{CPU: 0.27, Mem: 0.30},
	{CPU: 0.47, Mem: 0.35},
	{CPU: 0.27, Mem: 0.62},
	{CPU: 0.62, Mem: 0.50},
	{CPU: 0.75, Mem: 0.70},
}
