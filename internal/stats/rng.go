// Package stats provides the numerical substrate shared by the rest of the
// repository: a deterministic random number generator, common probability
// distributions, streaming moment and quantile estimators, and ordinary plus
// segmented (piece-wise) linear regression.
//
// Everything here is allocation-conscious and dependency-free so that the
// discrete-event simulator can call into it on its hot path.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based on
// xoshiro256**. It is NOT safe for concurrent use; give each goroutine its own
// instance (Split derives independent streams).
type RNG struct {
	s [4]uint64
}

// golden is 2⁶⁴/φ, the increment of the splitmix64 generator.
const golden = 0x9e3779b97f4a7c15

// Mix returns output i of the splitmix64 generator started at seed: the
// splitmix64 finalizer of seed + (i+1)·golden. Read as a hash of i keyed by
// seed, it gives statistically independent values for distinct i, so it can
// stand in for a draw that must not depend on when it is made: NewRNG seeds
// xoshiro with outputs 0–3, as the xoshiro authors recommend, and the
// simulator derives partition seeds and per-trace sampling decisions from it.
func Mix(seed, i uint64) uint64 {
	z := seed + (i+1)*golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Two RNGs built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = Mix(seed, uint64(i))
	}
	// Guard against the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = golden
	}
	return r
}

// Split derives a new, statistically independent generator from r. The parent
// stream advances by one value.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normally distributed value using the
// Marsaglia polar method. It stays the polar method, though the ziggurat
// behind LogNormal.Sample is faster, because its callers define frozen
// workloads: AlibabaLikeTrace's jitter and Poisson's normal approximation
// draw every rate trace and arrival count, and a different normal there
// would change the requests every figure and benchmark simulates.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}
