package multiplex

import (
	"errors"
	"math"
)

// ExactProblem is the full multiplexing model of §4.3 (Eq. 13-14),
// generalized to any number of services: minimize Σ_i n_i·R_i subject to,
// for every service k,
//
//	Σ_i A[k][i]/n_i  ≤  Slack[k]
//
// where A[k][i] = a_i·γ̃_{k,i} folds microservice i's latency slope with the
// (priority-modified) workload service k observes there (A[k][i] = 0 when
// service k does not use microservice i), and Slack[k] = SLA_k − Σ b_i over
// k's path. The problem is convex in n; the paper deems solving it directly
// too expensive at scale (§5.3.2) and uses the per-service decomposition
// instead — this solver exists to measure that approximation gap.
type ExactProblem struct {
	// R[i] is the dominant resource share of one container of microservice i.
	R []float64
	// A[k][i] as above; len(A) = services, len(A[k]) = microservices.
	A [][]float64
	// Slack[k] = SLA_k − Σ intercepts along service k's path; must be > 0.
	Slack []float64
}

// ExactSolution is the optimum of an ExactProblem.
type ExactSolution struct {
	// N[i] is the (fractional) container count of microservice i.
	N []float64
	// Usage is Σ N[i]·R[i].
	Usage float64
}

func (p *ExactProblem) validate() error {
	k := len(p.A)
	if k == 0 {
		return errors.New("multiplex: exact problem with no services")
	}
	if len(p.Slack) != k {
		return errors.New("multiplex: slack/services length mismatch")
	}
	m := len(p.R)
	if m == 0 {
		return errors.New("multiplex: exact problem with no microservices")
	}
	for ki, row := range p.A {
		if len(row) != m {
			return errors.New("multiplex: ragged A matrix")
		}
		any := false
		for _, a := range row {
			if a < 0 {
				return errors.New("multiplex: negative A entry")
			}
			if a > 0 {
				any = true
			}
		}
		if !any {
			return errors.New("multiplex: service with empty path")
		}
		if p.Slack[ki] <= 0 {
			return ErrExactInfeasible
		}
	}
	for _, r := range p.R {
		if r <= 0 {
			return errors.New("multiplex: non-positive resource share")
		}
	}
	return nil
}

// ErrExactInfeasible reports a non-positive slack (the SLA is below the sum
// of intercepts).
var ErrExactInfeasible = errors.New("multiplex: exact model infeasible (non-positive slack)")

// Solve finds the optimum by dual ascent: for multipliers λ ≥ 0 the
// Lagrangian minimizer is n_i(λ) = sqrt(Σ_k λ_k A[k][i] / R_i), and the
// concave dual g(λ) is maximized by projected gradient steps on the
// constraint residuals. Converges for every feasible convex instance.
func (p *ExactProblem) Solve(maxIters int, tol float64) (*ExactSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if maxIters <= 0 {
		maxIters = 20000
	}
	if tol <= 0 {
		tol = 1e-9
	}
	k, m := len(p.A), len(p.R)

	// Initialize λ from the single-service closed forms (Eq. 5): for
	// service k alone, λ_k = (Σ_i sqrt(A_ki R_i) / slack_k)^2.
	lambda := make([]float64, k)
	for ki := 0; ki < k; ki++ {
		var root float64
		for i := 0; i < m; i++ {
			root += math.Sqrt(p.A[ki][i] * p.R[i])
		}
		l := root / p.Slack[ki]
		lambda[ki] = l * l
	}

	n := make([]float64, m)
	residual := make([]float64, k)
	evalN := func() {
		for i := 0; i < m; i++ {
			var s float64
			for ki := 0; ki < k; ki++ {
				s += lambda[ki] * p.A[ki][i]
			}
			if s <= 0 {
				n[i] = 0
				continue
			}
			n[i] = math.Sqrt(s / p.R[i])
		}
	}
	for iter := 0; iter < maxIters; iter++ {
		evalN()
		// Constraint residuals g_k = Σ A/n − slack.
		worst := 0.0
		for ki := 0; ki < k; ki++ {
			var lhs float64
			for i := 0; i < m; i++ {
				if p.A[ki][i] == 0 {
					continue
				}
				if n[i] == 0 {
					lhs = math.Inf(1)
					break
				}
				lhs += p.A[ki][i] / n[i]
			}
			residual[ki] = lhs - p.Slack[ki]
			// Complementary slackness gap: binding when λ>0, satisfied
			// otherwise.
			gap := residual[ki]
			if lambda[ki] == 0 && gap < 0 {
				gap = 0
			}
			if a := math.Abs(gap) / p.Slack[ki]; a > worst {
				worst = a
			}
		}
		if worst < tol {
			break
		}
		// Multiplicative projected update: scale λ_k by how violated the
		// constraint is (residual > 0 needs a larger multiplier).
		for ki := 0; ki < k; ki++ {
			ratio := (residual[ki] + p.Slack[ki]) / p.Slack[ki] // lhs/slack
			if math.IsInf(ratio, 1) {
				ratio = 10
			}
			if ratio < 0.1 {
				ratio = 0.1
			}
			lambda[ki] *= ratio
		}
	}
	evalN()
	sol := &ExactSolution{N: n}
	for i := 0; i < m; i++ {
		sol.Usage += n[i] * p.R[i]
	}
	return sol, nil
}
