package stats

import "math"

// The ziggurat of Marsaglia & Tsang, "The Ziggurat Method for Generating
// Random Variables" (Journal of Statistical Software 5(8), 2000), for the
// standard normal. The density's right half, f(x) = exp(-x²/2), is covered by
// zigStrips horizontal strips of equal area v: strip 0 is the base, a
// rectangle of width zigR plus the tail beyond it; strip i ≥ 1 is the
// rectangle [0, x_i] × [f(x_i), f(x_{i-1})], with x_0 = 0 at the top and
// x_127 = zigR at the bottom. A draw picks a strip and a signed point across
// it from one Uint64. If the point lies under the next strip up (|x| <
// x_{i-1}), which it does ~97 % of the time, it is returned as it stands;
// otherwise it is in the strip's wedge, kept if a second uniform falls under
// the density, or in the base strip's tail, drawn by Marsaglia's exponential
// method.
//
// Unlike the paper's SHR3 version, the strip index (low 7 bits) and the point
// (top 53 bits, signed) come from disjoint bits of the draw, so the two are
// independent.
const (
	zigStrips = 128
	// zigR is x_127, the base strip's width: the one value for which 128
	// equal-area strips close exactly at the density's peak.
	zigR = 3.442619855899
	// zigScale is the magnitude of the signed 53-bit point: |j| < 2⁵².
	zigScale = 1 << 52
)

var (
	// zigK[i] is the point magnitude below which strip i's draw lies under
	// strip i-1 and is accepted at once: 2⁵² x_{i-1}/x_i (and 2⁵² zigR/q
	// for the base, whose rectangle is q = v/f(zigR) wide). zigK[1] is 0:
	// the top strip has nothing above it.
	zigK [zigStrips]uint64
	// zigW[i] maps a point to x: x_i/2⁵² (q/2⁵² for the base).
	zigW [zigStrips]float64
	// zigF[i] is f(x_i): 1 at the top, falling to f(zigR) at the base.
	zigF [zigStrips]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	// The common area of the strips: the base rectangle plus the tail.
	v := zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	q := v / f(zigR)
	zigK[0] = uint64(zigR / q * zigScale)
	zigW[0] = q / zigScale
	zigF[0] = 1
	zigW[zigStrips-1] = zigR / zigScale
	zigF[zigStrips-1] = f(zigR)
	// Each strip up has area v: x_{i-1} solves x_i (f(x_{i-1}) - f(x_i)) = v.
	x := zigR
	for i := zigStrips - 2; i >= 1; i-- {
		next := math.Sqrt(-2 * math.Log(v/x+f(x)))
		zigK[i+1] = uint64(next / x * zigScale)
		x = next
		zigW[i] = x / zigScale
		zigF[i] = f(x)
	}
}

// zigNormFloat64 returns a standard normally distributed value drawn by the
// ziggurat: one Uint64 per value ~97 % of the time, and no Log, Sqrt or Exp
// on that path. It is a different stream from NormFloat64's polar method.
func (r *RNG) zigNormFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & (zigStrips - 1)
		j := int64(u) >> 11 // signed, in [-2⁵², 2⁵²)
		x := float64(j) * zigW[i]
		a := uint64(j)
		if j < 0 {
			a = uint64(-j)
		}
		if a < zigK[i] {
			return x
		}
		if i == 0 {
			// The tail beyond zigR: x = zigR + t with t ~ Exp(zigR),
			// accepted with probability exp(-t²/2).
			for {
				t := r.ExpFloat64() / zigR
				if y := r.ExpFloat64(); y+y >= t*t {
					if j >= 0 {
						return zigR + t
					}
					return -zigR - t
				}
			}
		}
		// The wedge between the rectangle under strip i-1 and the density.
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}
