// Package queueing provides the M/M/c (Erlang C) results the simulator's
// fluid fast path evaluates every minute for far-from-knee containers. Its
// tests hold them to the M/M/1 closed forms of the paper's §2.3 analysis
// (M/M/1 is the one-server case) and hold the discrete-event simulator to
// them: an M/M/c container in the simulator must reproduce Erlang-C waiting
// times.
//
// Rates are in requests per millisecond and times in milliseconds unless
// stated otherwise.
package queueing

import (
	"errors"
	"math"
)

// ErrUnstable is returned when the offered load reaches or exceeds capacity.
var ErrUnstable = errors.New("queueing: utilization >= 1 (unstable queue)")

// MMC describes an M/M/c queue: c servers each with rate mu.
type MMC struct {
	Lambda  float64
	Mu      float64
	Servers int
}

// Rho returns the per-server utilization λ/(c·μ).
func (q MMC) Rho() float64 { return q.Lambda / (float64(q.Servers) * q.Mu) }

// ErlangC returns the probability an arrival must wait (all servers busy).
func (q MMC) ErlangC() (float64, error) {
	c := q.Servers
	if c <= 0 {
		return 0, errors.New("queueing: need at least one server")
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0, ErrUnstable
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Iterative Erlang-B, then convert to Erlang-C (numerically stable).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b)), nil
}

// WaitQuantile returns the p-quantile of the waiting time. For M/M/c the
// wait is 0 with probability 1−C and exponential with rate cμ−λ otherwise.
func (q MMC) WaitQuantile(p float64) (float64, error) {
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	if p <= 0 || p >= 1 {
		return 0, errors.New("queueing: quantile must be in (0,1)")
	}
	if p <= 1-pc {
		return 0, nil
	}
	// P(W > t) = C·exp(−(cμ−λ)t) = 1−p  →  t.
	return -math.Log((1-p)/pc) / (float64(q.Servers)*q.Mu - q.Lambda), nil
}

// Saturated reports whether the queue has no stationary distribution: the
// offered load reaches or exceeds capacity (ρ ≥ 1), the service rate is not
// positive, or there are no servers.
func (q MMC) Saturated() bool {
	if q.Servers <= 0 || q.Mu <= 0 {
		return q.Lambda > 0
	}
	return q.Rho() >= 1
}

// ErlangCBounded is ErlangC extended to the edge cases the simulator's fluid
// fast path evaluates every minute, returning a finite, documented value
// instead of an error, Inf, or NaN:
//
//   - zero offered load (λ ≤ 0): nobody waits, returns 0;
//   - instantaneous service (μ = +Inf, i.e. zero service time): returns 0;
//   - saturated (ρ ≥ 1, including ρ exactly 1 — the knee sitting exactly at
//     the operating point — and degenerate μ ≤ 0 or Servers ≤ 0): every
//     arrival waits, returns 1.
func (q MMC) ErlangCBounded() float64 {
	if q.Lambda <= 0 {
		return 0
	}
	if q.Saturated() {
		return 1
	}
	pc, err := q.ErlangC()
	if err != nil {
		return 1
	}
	return pc
}

// WaitQuantileBounded returns the p-quantile of the waiting time with the
// same finite-value contract: p is clamped into [0, 1] (p ≤ 0 → 0, p ≥ 1 →
// boundMs), saturation returns boundMs, and stable-queue quantiles are capped
// at boundMs (the far tail of the exponential branch otherwise diverges as
// p → 1).
func (q MMC) WaitQuantileBounded(p, boundMs float64) float64 {
	if p <= 0 || q.Lambda <= 0 {
		return 0
	}
	if p >= 1 || q.Saturated() {
		return boundMs
	}
	w, err := q.WaitQuantile(p)
	if err != nil || (boundMs > 0 && w > boundMs) {
		return boundMs
	}
	return w
}
