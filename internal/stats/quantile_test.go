package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := NewRNG(3)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed) + 1)
		n := rr.Intn(200) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		// Quantiles stay within data range.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return Quantile(xs, 0) == sorted[0] && Quantile(xs, 1) == sorted[n-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	if got := m.Variance(); got != 4 {
		t.Fatalf("variance = %v", got)
	}
	if got := m.StdDev(); got != 2 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestMomentsMatchBatch(t *testing.T) {
	r := NewRNG(77)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		m.Add(xs[i])
	}
	if math.Abs(m.Mean()-Mean(xs)) > 1e-9 {
		t.Fatalf("streaming mean %v != batch %v", m.Mean(), Mean(xs))
	}
	mean, ss := Mean(xs), 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if batch := ss / float64(len(xs)); math.Abs(m.Variance()-batch) > 1e-6 {
		t.Fatalf("streaming var %v != batch %v", m.Variance(), batch)
	}
	if m.n != len(xs) {
		t.Fatalf("count = %d", m.n)
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) {
		t.Fatal("empty moments should report NaN")
	}
}

func TestReservoirSmallStream(t *testing.T) {
	rv := NewReservoir(100, NewRNG(5))
	for i := 0; i < 50; i++ {
		rv.Add(float64(i))
	}
	if rv.Seen() != 50 || len(rv.Values()) != 50 {
		t.Fatalf("seen=%d len=%d", rv.Seen(), len(rv.Values()))
	}
}

func TestReservoirQuantileApprox(t *testing.T) {
	rv := NewReservoir(2000, NewRNG(5))
	r := NewRNG(6)
	for i := 0; i < 200000; i++ {
		rv.Add(r.Float64())
	}
	med := rv.Quantile(0.5)
	if math.Abs(med-0.5) > 0.05 {
		t.Fatalf("reservoir median %v, want ~0.5", med)
	}
	p95 := rv.Quantile(0.95)
	if math.Abs(p95-0.95) > 0.05 {
		t.Fatalf("reservoir p95 %v, want ~0.95", p95)
	}
}

func TestReservoirPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoir(0, NewRNG(1))
}

func TestCDF(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5}
	got := CDF(values, []float64{0, 1, 2.5, 5, 10})
	want := []float64{0, 0.2, 0.4, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDFEmptyAndAllNaN(t *testing.T) {
	// No values means no distribution: nil, not a division by zero
	// producing an all-NaN slice.
	if got := CDF(nil, []float64{1, 2}); got != nil {
		t.Fatalf("CDF(nil) = %v, want nil", got)
	}
	nan := math.NaN()
	if got := CDF([]float64{nan, nan}, []float64{1}); got != nil {
		t.Fatalf("CDF(all NaN) = %v, want nil", got)
	}
}

func TestCDFFiltersNaN(t *testing.T) {
	// NaN elements void sort's ordering guarantee and must be dropped
	// before the search; the distribution is over the 4 finite values.
	values := []float64{1, math.NaN(), 2, 3, math.NaN(), 4}
	got := CDF(values, []float64{0, 2, 4})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReservoirWindowedFillDeterministic(t *testing.T) {
	// Feeding the same stream in one pass or in window-sized chunks hits
	// the identical reservoir state (Add is sequential over one RNG), and
	// the sample never exceeds capacity.
	fill := func(chunks int) []float64 {
		rv := NewReservoir(64, NewRNG(9))
		per := 1000 / chunks
		for c := 0; c < chunks; c++ {
			for i := 0; i < per; i++ {
				rv.Add(float64(c*per + i))
			}
		}
		if len(rv.Values()) > 64 {
			t.Fatalf("reservoir overflowed: %d", len(rv.Values()))
		}
		return rv.Values()
	}
	one, four := fill(1), fill(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("windowed fill diverged at %d: %v vs %v", i, one[i], four[i])
		}
	}
}

// TestReservoirGrowsLazilyLikePreSized: a reservoir that grows its buffer on
// demand holds exactly what one allocated at full capacity up front holds —
// same elements in the same slots, same RNG draws — whether the stream stops
// short of the capacity or runs far past it, and its buffer never outgrows
// the capacity.
func TestReservoirGrowsLazilyLikePreSized(t *testing.T) {
	const capacity = 100
	for _, n := range []int{0, 1, 15, 16, 17, 99, 100, 101, 5000} {
		lazy := NewReservoir(capacity, NewRNG(7))
		pre := &Reservoir{cap: capacity, items: make([]float64, 0, capacity), rng: NewRNG(7)}
		src := NewRNG(3)
		for i := 0; i < n; i++ {
			x := src.Float64()
			lazy.Add(x)
			pre.Add(x)
		}
		got, want := lazy.Values(), pre.Values()
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d elements, pre-sized holds %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d is %v, pre-sized holds %v", n, i, got[i], want[i])
			}
		}
		if a, b := lazy.rng.Uint64(), pre.rng.Uint64(); a != b {
			t.Fatalf("n=%d: RNG streams diverged", n)
		}
		if c := cap(lazy.items); c > capacity || (n < capacity/4 && c > 2*max(n, 8)) {
			t.Fatalf("n=%d: buffer capacity %d", n, c)
		}
	}
}
