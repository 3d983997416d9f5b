package stats

import (
	"math"
	"sort"
	"testing"
)

// zigDraws is the sample size of every distribution test below. Each
// tolerance is five standard errors of its statistic at this size, from the
// CLT, so a correct sampler fails one at a time with probability < 10⁻⁶ at
// any seed; the tests run at fixed seeds.
const zigDraws = 1_000_000

func zigSample(seed uint64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, zigDraws)
	for i := range xs {
		xs[i] = r.zigNormFloat64()
	}
	return xs
}

// stdNormalCDF is Φ, exactly as math.Erfc gives it.
func stdNormalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func TestZigguratTables(t *testing.T) {
	if zigK[1] != 0 {
		t.Errorf("zigK[1] = %d, want 0: the top strip has no rectangle", zigK[1])
	}
	if zigF[0] != 1 {
		t.Errorf("zigF[0] = %v, want f(0) = 1", zigF[0])
	}
	for i := 1; i < zigStrips; i++ {
		if !(zigF[i] < zigF[i-1]) {
			t.Fatalf("zigF is not decreasing at %d: %v after %v", i, zigF[i], zigF[i-1])
		}
		if i >= 2 && !(zigK[i] < zigScale) {
			t.Fatalf("zigK[%d] = %d: x_{i-1}/x_i must be below 1", i, zigK[i])
		}
	}
	if x := zigW[zigStrips-1] * zigScale; x != zigR {
		t.Errorf("x_127 = %v, want zigR = %v", x, zigR)
	}
	// The strips close at the peak: with zigR right, the top strip,
	// [0, x_1] × [f(x_1), 1], has the same area v as every other.
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	v := zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	x1 := zigW[1] * zigScale
	if top := x1 * (1 - zigF[1]); math.Abs(top-v)/v > 1e-8 {
		t.Errorf("top strip area %v, want v = %v", top, v)
	}
}

// TestZigguratMoments checks the first four moments against N(0, 1). For n
// draws the standard errors are √(1/n) for the mean, √(2/n) for the
// variance (μ₄ − σ⁴ = 2), √(6/n) for the skewness and √(24/n) for the excess
// kurtosis.
func TestZigguratMoments(t *testing.T) {
	xs := zigSample(101)
	var s1, s2, s3, s4 float64
	for _, x := range xs {
		x2 := x * x
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
	}
	n := float64(len(xs))
	mean := s1 / n
	m2 := s2/n - mean*mean
	m3 := s3/n - 3*mean*s2/n + 2*mean*mean*mean
	m4 := s4/n - 4*mean*s3/n + 6*mean*mean*s2/n - 3*mean*mean*mean*mean
	for _, c := range []struct {
		name      string
		got, want float64
		se        float64
	}{
		{"mean", mean, 0, math.Sqrt(1 / n)},
		{"variance", m2, 1, math.Sqrt(2 / n)},
		{"skewness", m3 / math.Pow(m2, 1.5), 0, math.Sqrt(6 / n)},
		{"excess kurtosis", m4/(m2*m2) - 3, 0, math.Sqrt(24 / n)},
	} {
		if math.Abs(c.got-c.want) > 5*c.se {
			t.Errorf("%s = %.5f, want %v ± %.5f (5 standard errors)", c.name, c.got, c.want, 5*c.se)
		}
	}
}

// ksCritical1pc is the 1 % critical value of the Kolmogorov distribution,
// √(−ln(0.005)/2): D·√(effective n) exceeds it with probability 0.01.
var ksCritical1pc = math.Sqrt(-math.Log(0.005) / 2)

// TestZigguratKSExact is the one-sample Kolmogorov–Smirnov test against the
// exact Φ: D must stay below the 1 % critical value 1.628/√n (0.00163 at
// 10⁶ draws).
func TestZigguratKSExact(t *testing.T) {
	xs := zigSample(103)
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := stdNormalCDF(x)
		d = max(d, float64(i+1)/n-f, f-float64(i)/n)
	}
	if crit := ksCritical1pc / math.Sqrt(n); d > crit {
		t.Errorf("KS D against Φ = %.5f, want < %.5f (1 %% critical value)", d, crit)
	}
}

// TestZigguratKSPolar is the two-sample Kolmogorov–Smirnov test against the
// polar method: 10⁶ draws each, D below 1.628·√(2/n) (0.00230).
func TestZigguratKSPolar(t *testing.T) {
	zs := zigSample(105)
	r := NewRNG(107)
	ps := make([]float64, zigDraws)
	for i := range ps {
		ps[i] = r.NormFloat64()
	}
	sort.Float64s(zs)
	sort.Float64s(ps)
	d, i, j := 0.0, 0, 0
	n := float64(zigDraws)
	for i < len(zs) && j < len(ps) {
		x := min(zs[i], ps[j])
		for i < len(zs) && zs[i] <= x {
			i++
		}
		for j < len(ps) && ps[j] <= x {
			j++
		}
		d = max(d, math.Abs(float64(i)-float64(j))/n)
	}
	if crit := ksCritical1pc * math.Sqrt(2/n); d > crit {
		t.Errorf("two-sample KS D against the polar method = %.5f, want < %.5f", d, crit)
	}
}

// TestZigguratTailsAndSymmetry counts draws beyond the base strip's edge
// (only the tail path makes them) and beyond 4σ, on each side. A count with
// probability p has standard error √(n p (1−p)); the two sides' difference,
// √(2 n p).
func TestZigguratTailsAndSymmetry(t *testing.T) {
	xs := zigSample(109)
	n := float64(len(xs))
	var pos float64
	for _, x := range xs {
		if x > 0 {
			pos++
		}
	}
	if se := math.Sqrt(n / 4); math.Abs(pos-n/2) > 5*se {
		t.Errorf("%v positive draws of %v, want %v ± %.0f", pos, n, n/2, 5*se)
	}
	for _, edge := range []float64{zigR, 4} {
		var hi, lo float64
		for _, x := range xs {
			if x > edge {
				hi++
			} else if x < -edge {
				lo++
			}
		}
		p := math.Erfc(edge / math.Sqrt2) // both sides
		want := n * p
		if se := math.Sqrt(n * p * (1 - p)); math.Abs(hi+lo-want) > 5*se {
			t.Errorf("%v draws beyond ±%v, want %.1f ± %.1f", hi+lo, edge, want, 5*se)
		}
		if se := math.Sqrt(want); math.Abs(hi-lo) > 5*se {
			t.Errorf("beyond ±%v: %v above, %v below, want a difference within %.1f", edge, hi, lo, 5*se)
		}
	}
}

// TestLogNormalSampleZeroAlloc: the simulator draws one log-normal per
// request stage, so a draw must not allocate.
func TestLogNormalSampleZeroAlloc(t *testing.T) {
	d := LogNormalFromMeanCV(5, 0.8)
	r := NewRNG(113)
	sink := 0.0
	if allocs := testing.AllocsPerRun(1000, func() { sink += d.Sample(r) }); allocs != 0 {
		t.Fatalf("LogNormal.Sample allocates %.1f times per draw, want 0", allocs)
	}
	if !(sink > 0) {
		t.Fatal("the draws summed to a non-positive value")
	}
}

var benchSink float64

func BenchmarkNormFloat64(b *testing.B) {
	b.Run("polar", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			benchSink += r.NormFloat64()
		}
	})
	b.Run("ziggurat", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			benchSink += r.zigNormFloat64()
		}
	})
}

func BenchmarkLogNormalSample(b *testing.B) {
	d := LogNormalFromMeanCV(5, 0.8)
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += d.Sample(r)
	}
}
