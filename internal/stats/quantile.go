package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of the values using linear
// interpolation between order statistics (the same convention as numpy's
// default). It returns NaN for an empty input. The input slice is not
// modified: Quantile selects the two order statistics it interpolates in a
// copy, in expected linear time, and returns bit for bit what interpolating
// over a sorted copy would. Inputs must be NaN-free: a NaN compares false
// with everything, so the selection still ends but leaves the order
// statistics (and anything downstream, e.g. Reservoir.QuantileScratch)
// unspecified. Producers of latency samples never emit NaN; callers
// synthesizing values should filter first (as CDF does).
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	return selectQuantile(append([]float64(nil), values...), q)
}

// selectQuantile is Quantile over a, which it reorders: the k-th order
// statistic by selection, then the (k+1)-th as the minimum of what selection
// left above it.
func selectQuantile(a []float64, q float64) float64 {
	pos := min(max(q, 0), 1) * float64(len(a)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectK(a, lo)
	if lo == hi {
		return a[lo]
	}
	next := a[hi]
	for _, v := range a[hi+1:] {
		if v < next {
			next = v
		}
	}
	frac := pos - float64(lo)
	return a[lo]*(1-frac) + next*frac
}

// selectK reorders a so that a[k] holds the value a sorted copy holds at k
// and nothing after it is smaller (Hoare's FIND, expected O(len(a))). Every
// partition pass swaps at least once, so the range shrinks and the loop ends
// whatever the input, NaN included.
func selectK(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot <= a[i..hi]; anything between equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// QuantileSorted is like Quantile but requires values to be sorted ascending;
// it performs no allocation.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P95 returns the 95th percentile of values.
func P95(values []float64) float64 { return Quantile(values, 0.95) }

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Moments accumulates count, mean, and variance in a single streaming pass
// using Welford's algorithm. The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Mean returns the running mean (NaN if no observations).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the running population variance (NaN if no observations).
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the running population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Reservoir keeps a fixed-size uniform random sample of a stream, suitable
// for estimating quantiles of long simulations without unbounded memory.
type Reservoir struct {
	cap   int
	seen  int
	items []float64
	rng   *RNG
}

// NewReservoir creates a reservoir holding at most capacity samples. The
// sample buffer grows with what is offered: most reservoirs of a simulation
// (one per microservice per minute) see far fewer values than their bound.
func NewReservoir(capacity int, rng *RNG) *Reservoir {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, rng: rng}
}

// Add offers one value to the reservoir.
func (rv *Reservoir) Add(x float64) {
	rv.seen++
	if n := len(rv.items); n < rv.cap {
		if n == cap(rv.items) {
			// Double, but never past the bound (append's own growth would
			// overshoot it by up to a quarter).
			grown := make([]float64, n, min(max(2*n, 16), rv.cap))
			copy(grown, rv.items)
			rv.items = grown
		}
		rv.items = append(rv.items, x)
		return
	}
	if j := rv.rng.Intn(rv.seen); j < rv.cap {
		rv.items[j] = x
	}
}

// Reset empties the reservoir for a new stream drawing from rng, keeping the
// sample buffer.
func (rv *Reservoir) Reset(rng *RNG) {
	rv.seen, rv.items, rv.rng = 0, rv.items[:0], rng
}

// Seen returns the number of values offered so far.
func (rv *Reservoir) Seen() int { return rv.seen }

// QuantileScratch estimates the q-quantile from the current sample: what
// Quantile returns for Values(), computed in *scratch, which it grows to the
// sample's size and keeps for the next call. With a warm buffer it allocates
// nothing, and the sample keeps its order.
func (rv *Reservoir) QuantileScratch(q float64, scratch *[]float64) float64 {
	if len(rv.items) == 0 {
		return math.NaN()
	}
	*scratch = append((*scratch)[:0], rv.items...)
	return selectQuantile(*scratch, q)
}

// Mean returns the mean of the current sample (NaN when empty).
func (rv *Reservoir) Mean() float64 { return Mean(rv.items) }

// Values returns a copy of the current sample.
func (rv *Reservoir) Values() []float64 {
	out := make([]float64, len(rv.items))
	copy(out, rv.items)
	return out
}

// CDF returns the empirical cumulative distribution of values evaluated at
// each of the given thresholds: out[i] = fraction of values <= thresholds[i].
//
// NaN elements carry no ordering information (they break sort.Float64s'
// sorted-output guarantee, and with it SearchFloat64s) and are dropped
// before the distribution is built. When no finite-ordered values remain —
// empty input, or all NaN — there is no distribution to evaluate and CDF
// returns nil, mirroring Quantile's documented NaN-on-empty contract
// (previously this divided by len(sorted)==0 and silently produced an
// all-NaN slice).
func CDF(values, thresholds []float64) []float64 {
	sorted := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		out[i] = float64(sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))) / float64(len(sorted))
	}
	return out
}
