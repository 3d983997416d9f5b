package multiplex

import (
	"errors"
	"math"
)

// Theorem1Params describes the two-service scenario of Fig. 5 and Appendix
// A: service 1 calls U then shared P; service 2 calls H then shared P. All
// latency models are single-interval: L = a·γ/n + b.
type Theorem1Params struct {
	AU, BU, RU float64 // microservice U (service 1, latency-sensitive)
	AH, BH, RH float64 // microservice H (service 2)
	AP, BP, RP float64 // shared microservice P
	Gamma1     float64 // service 1 workload (req/min)
	Gamma2     float64 // service 2 workload
	SLA1       float64
	SLA2       float64
}

// slacks returns SLA_k minus the path intercepts.
func (p Theorem1Params) slacks() (float64, float64, error) {
	s1 := p.SLA1 - p.BU - p.BP
	s2 := p.SLA2 - p.BH - p.BP
	if s1 <= 0 || s2 <= 0 {
		return 0, 0, errors.New("multiplex: infeasible Theorem 1 scenario")
	}
	return s1, s2, nil
}

// SharingFCFS evaluates Eq. 17: the optimal resource usage when P's queue is
// FCFS, so both services see the aggregate workload at P.
func (p Theorem1Params) SharingFCFS() (float64, error) {
	s1, _, err := p.slacks()
	if err != nil {
		return 0, err
	}
	num := math.Sqrt(p.AU*p.Gamma1*p.RU+p.AH*p.Gamma2*p.RH) +
		math.Sqrt(p.AP*(p.Gamma1+p.Gamma2)*p.RP)
	return num * num / s1, nil
}

// NonSharing evaluates Eq. 18: each service deploys its own exclusive
// containers of P.
func (p Theorem1Params) NonSharing() (float64, error) {
	s1, _, err := p.slacks()
	if err != nil {
		return 0, err
	}
	t1 := math.Sqrt(p.AU*p.RU) + math.Sqrt(p.AP*p.RP)
	t2 := math.Sqrt(p.AH*p.RH) + math.Sqrt(p.AP*p.RP)
	return (p.Gamma1*t1*t1 + p.Gamma2*t2*t2) / s1, nil
}

// PriorityUsage numerically solves the true priority-scheduling model
// (Eq. 13-14): minimize n_u·R_u + n_h·R_h + n_p·R_p subject to
//
//	a_u·γ1/n_u + a_p·γ1/n_p     ≤ SLA1 − bU − bP   (service 1, high priority)
//	a_h·γ2/n_h + a_p·(γ1+γ2)/n_p ≤ SLA2 − bH − bP  (service 2 waits behind 1)
//
// by golden-section search over n_p (both constraints bind at the optimum,
// and the objective is unimodal in n_p).
func (p Theorem1Params) PriorityUsage() (float64, error) {
	s1, s2, err := p.slacks()
	if err != nil {
		return 0, err
	}
	// Feasible n_p must leave positive slack in both constraints.
	lo := math.Max(p.AP*p.Gamma1/s1, p.AP*(p.Gamma1+p.Gamma2)/s2) * (1 + 1e-9)
	hi := lo * 1000
	usage := func(np float64) float64 {
		r1 := s1 - p.AP*p.Gamma1/np
		r2 := s2 - p.AP*(p.Gamma1+p.Gamma2)/np
		nu := p.AU * p.Gamma1 / r1
		nh := p.AH * p.Gamma2 / r2
		return nu*p.RU + nh*p.RH + np*p.RP
	}
	const phi = 0.618033988749895
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := usage(x1), usage(x2)
	for i := 0; i < 200 && (b-a)/b > 1e-12; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = usage(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = usage(x2)
		}
	}
	return usage((a + b) / 2), nil
}
