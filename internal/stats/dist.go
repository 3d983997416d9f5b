package stats

import (
	"fmt"
	"math"
)

// LogNormal is a log-normal distribution parameterized by the underlying
// normal's mu and sigma.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a log-normally distributed value. Its normal comes from the
// ziggurat (zigNormFloat64), not NormFloat64's polar method: this is the one
// draw per simulated request stage, and the ziggurat costs about a fifth as
// much.
func (d LogNormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.zigNormFloat64())
}

func (d LogNormal) String() string { return fmt.Sprintf("LogNormal(mu=%g, sigma=%g)", d.Mu, d.Sigma) }

// LogNormalFromMeanCV builds a log-normal distribution with the given mean and
// coefficient of variation (stddev/mean). CV must be >= 0.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if mean <= 0 {
		panic("stats: LogNormalFromMeanCV requires mean > 0")
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Poisson draws a Poisson-distributed count with the given mean using Knuth's
// algorithm for small means and a normal approximation for large ones. A
// mean that is not positive, NaN included, draws nothing and returns 0:
// Knuth's loop would never end on NaN, since no product compares <= NaN.
func Poisson(r *RNG, mean float64) int {
	if !(mean > 0) {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; adequate for the
		// workload generators, which only need per-interval counts.
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
