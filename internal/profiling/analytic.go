package profiling

import (
	"math"

	"erms/internal/cluster"
	"erms/internal/sim"
)

// Analytic is a first-principles latency model derived from a microservice's
// intrinsic service time and thread count, used where empirical profiling is
// impractical (the 500-service trace-driven simulations of §6.5, mirroring
// how the paper's simulator consumes model parameters rather than live
// measurements).
//
// The model is the piece-wise linear family the paper observes in Fig. 3,
// parameterized physically:
//
//   - the idle tail latency is L0 = TailFactor·S, with S = BaseMs inflated
//     by host interference;
//   - per-container capacity saturates at sat = Threads·60000/S calls/min,
//     and the knee sits at σ = RhoKnee·sat — so interference both raises L0
//     and pulls the knee earlier;
//   - below the knee latency climbs gently to KneeFactor·L0; past it the
//     slope steepens by SlopeRatio (Fig. 3 reports ≈5×).
//
// Both interference effects of §2.2 — earlier knee, steeper slope — follow
// directly, and the intercepts stay moderate so the Eq. 5 closed forms
// remain well-conditioned.
type Analytic struct {
	Profile      sim.ServiceProfile
	Threads      int
	Interference cluster.InterferenceModel

	// KneeFactor is the latency multiple (of L0) reached at the knee.
	KneeFactor float64
}

const (
	// TailFactor maps mean service time to idle tail latency (≈ P95 of an
	// exponential service time).
	TailFactor = 3
	// RhoKnee is the utilization at which queueing takes over.
	RhoKnee = 0.75
	// SlopeRatio is the high-interval slope relative to the low interval
	// (§2.2: "the rate of increase ... is 5 times").
	SlopeRatio = 5
)

var _ Model = (*Analytic)(nil)

// NewAnalytic builds an analytic model. The knee
// factor shrinks with the thread count: a single-threaded container behaves
// like an M/M/1 queue whose tail has already quadrupled by 75% utilization,
// while a wide thread pool stays flat until much closer to saturation.
func NewAnalytic(p sim.ServiceProfile, threads int, itf cluster.InterferenceModel) *Analytic {
	return &Analytic{
		Profile:      p,
		Threads:      threads,
		Interference: itf,
		KneeFactor:   1 + 3/math.Sqrt(float64(threads)),
	}
}

// serviceTime returns S, the inflated per-request service time (ms).
func (a *Analytic) serviceTime(cpuUtil, memUtil float64) float64 {
	return a.Profile.BaseMs * a.Interference.Inflation(cpuUtil, memUtil)
}

// Saturation returns the per-container arrival rate (calls/minute) at which
// the container's thread pool is fully busy — the stability limit.
func (a *Analytic) Saturation(cpuUtil, memUtil float64) float64 {
	return float64(a.Threads) * 60_000 / a.serviceTime(cpuUtil, memUtil)
}

// minKnee floors the knee at one call per thousand minutes. Under extreme
// interference (or an absurd service time) Saturation tends to 0, and an
// unfloored knee of 0 would drive the Params slope (KneeFactor-1)·l0/knee to
// +Inf — and NaN once l0 is also degenerate — which poisons every Eq. 5
// closed form downstream. The floor keeps the slope finite while still
// describing a container that saturates essentially immediately.
const minKnee = 1e-3

// Knee returns σ = ρ_knee · saturation: interference shrinks capacity,
// moving the knee earlier, as in Fig. 3. The result is floored at minKnee so
// a fully saturated regime yields a steep-but-finite linearization instead
// of an Inf/NaN slope.
func (a *Analytic) Knee(cpuUtil, memUtil float64) float64 {
	k := RhoKnee * a.Saturation(cpuUtil, memUtil)
	if !(k > minKnee) { // catches NaN as well as small and zero values
		return minKnee
	}
	return k
}

// capRatio mirrors scaling.DomainCapRatio: how far past the knee the high
// interval remains valid (≈82% utilization at the defaults).
const capRatio = 1.1

// capFactor is the latency multiple (of L0) the underlying curve reaches at
// the domain cap: continuing past the knee with a slope SlopeRatio times the
// low interval's.
func (a *Analytic) capFactor() float64 {
	return a.KneeFactor + SlopeRatio*(a.KneeFactor-1)*(capRatio-1)
}

// Params returns the slope and intercept of the chosen interval. Both lines
// are secants of the underlying convex curve anchored at the idle floor —
// the low interval chords (0, L0)→(σ, K·L0), the high interval
// (0, L0)→(capRatio·σ, capFactor·L0) — so the intercept b is always the
// attainable latency floor (which keeps the Eq. 5 closed forms
// well-conditioned) and both lines over-estimate the curve on their domain
// (allocations err on the safe side).
func (a *Analytic) Params(high bool, cpuUtil, memUtil float64) (float64, float64) {
	l0 := TailFactor * a.serviceTime(cpuUtil, memUtil)
	knee := a.Knee(cpuUtil, memUtil)
	if !high {
		return (a.KneeFactor - 1) * l0 / knee, l0
	}
	return (a.capFactor() - 1) * l0 / (capRatio * knee), l0
}

// Predict evaluates the piece-wise linearization.
func (a *Analytic) Predict(workload, cpuUtil, memUtil float64) float64 {
	high := workload > a.Knee(cpuUtil, memUtil)
	slope, b := a.Params(high, cpuUtil, memUtil)
	return slope*workload + b
}

// AnalyticModels builds analytic models for every microservice in the given
// profile map, each with its container spec's thread count (4 where the spec
// is missing or sets none).
func AnalyticModels(profiles map[string]sim.ServiceProfile, containers map[string]cluster.ContainerSpec, itf cluster.InterferenceModel) map[string]Model {
	out := make(map[string]Model, len(profiles))
	for ms, p := range profiles {
		t := containers[ms].Threads
		if t <= 0 {
			t = 4
		}
		out[ms] = NewAnalytic(p, t, itf)
	}
	return out
}
