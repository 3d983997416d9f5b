package workload

import (
	"math"
	"sort"
	"testing"

	"erms/internal/stats"
)

func TestSLAValidate(t *testing.T) {
	good := P95SLA("svc", 200)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Percentile != 0.95 {
		t.Fatalf("percentile = %v", good.Percentile)
	}
	bad := []SLA{
		{Service: "", Threshold: 100, Percentile: 0.95},
		{Service: "s", Threshold: 0, Percentile: 0.95},
		{Service: "s", Threshold: 100, Percentile: 0},
		{Service: "s", Threshold: 100, Percentile: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestStaticPattern(t *testing.T) {
	p := Static{Rate: 1000}
	for _, tm := range []float64{0, 5, 1e6} {
		if p.RateAt(tm) != 1000 {
			t.Fatalf("rate at %v = %v", tm, p.RateAt(tm))
		}
	}
}

func TestDiurnalRange(t *testing.T) {
	d := Diurnal{Base: 100, Peak: 900, PeriodMin: 1440}
	min, max := math.Inf(1), math.Inf(-1)
	for tm := 0.0; tm < 1440; tm++ {
		r := d.RateAt(tm)
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if math.Abs(min-100) > 2 || math.Abs(max-900) > 2 {
		t.Fatalf("diurnal range [%v, %v], want [100, 900]", min, max)
	}
}

func TestDiurnalSpike(t *testing.T) {
	d := Diurnal{Base: 100, Peak: 100, PeriodMin: 100,
		Spikes: []Spike{{Start: 10, Duration: 5, Factor: 2}}}
	if got := d.RateAt(12); math.Abs(got-200) > 1e-9 {
		t.Fatalf("spiked rate = %v", got)
	}
	if got := d.RateAt(20); math.Abs(got-100) > 1e-9 {
		t.Fatalf("post-spike rate = %v", got)
	}
}

func TestDiurnalNeverNegative(t *testing.T) {
	d := Diurnal{Base: -500, Peak: 100, PeriodMin: 60}
	for tm := 0.0; tm < 120; tm += 0.5 {
		if d.RateAt(tm) < 0 {
			t.Fatalf("negative rate at %v", tm)
		}
	}
}

func TestTraceInterpolation(t *testing.T) {
	tr := Trace{Rates: []float64{0, 100, 50}, StepMin: 1}
	cases := map[float64]float64{
		0:   0,
		0.5: 50,
		1:   100,
		1.5: 75,
		2:   50,
		99:  50, // beyond end holds last value
		-1:  0,  // before start holds first value
	}
	for tm, want := range cases {
		if got := tr.RateAt(tm); math.Abs(got-want) > 1e-9 {
			t.Fatalf("RateAt(%v) = %v, want %v", tm, got, want)
		}
	}
	if (Trace{}).RateAt(5) != 0 {
		t.Fatal("empty trace should be 0")
	}
}

func TestAlibabaLikeTraceDeterministic(t *testing.T) {
	a := AlibabaLikeTrace(7, 120, 100, 1000)
	b := AlibabaLikeTrace(7, 120, 100, 1000)
	if len(a.Rates) != 120 {
		t.Fatalf("trace length = %d", len(a.Rates))
	}
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
	c := AlibabaLikeTrace(8, 120, 100, 1000)
	diff := 0
	for i := range a.Rates {
		if a.Rates[i] != c.Rates[i] {
			diff++
		}
	}
	if diff < 60 {
		t.Fatalf("different seeds too similar: only %d/120 samples differ", diff)
	}
	for i, r := range a.Rates {
		if r < 0 {
			t.Fatalf("negative rate at %d", i)
		}
	}
}

// oracleArrivals is the arrival generator the stream replaced, verbatim: it
// draws every minute of the window into one slice and sorts it whole.
// NewArrivals must return the same times, bit for bit and in the same order,
// and leave its RNG in the same state.
func oracleArrivals(p Pattern, r *stats.RNG, startMin, endMin float64) []float64 {
	var out []float64
	for m := math.Floor(startMin); m < endMin; m++ {
		lo := math.Max(m, startMin)
		hi := math.Min(m+1, endMin)
		if hi <= lo {
			continue
		}
		rate := p.RateAt(m) * (hi - lo) // expected arrivals in this slice
		n := stats.Poisson(r, rate)
		for i := 0; i < n; i++ {
			tMin := lo + r.Float64()*(hi-lo)
			out = append(out, tMin*60_000) // ms
		}
	}
	sort.Float64s(out)
	return out
}

// drain collects what remains of a stream.
func drain(a *Arrivals) []float64 {
	var out []float64
	for t, ok := a.Next(); ok; t, ok = a.Next() {
		out = append(out, t)
	}
	return out
}

// TestArrivalsMatchOracle holds the stream to the whole-window generator on
// every pattern kind, on whole, fractional and empty windows, on rates whose
// per-slice means take Poisson's Knuth branch (<= 64), its normal branch
// (> 64) and neither (0), over 50 seeds.
func TestArrivalsMatchOracle(t *testing.T) {
	patterns := []Pattern{
		Static{Rate: 0},
		Static{Rate: 30},
		Static{Rate: 64},
		Static{Rate: 100}, // normal branch on a whole minute, Knuth on a half
		Static{Rate: 900},
		Diurnal{Base: 20, Peak: 400, PeriodMin: 5, PhaseMin: 1, Spikes: []Spike{
			{Start: 1, Duration: 1.5, Factor: 3}, {Start: 4.5, Duration: 0.5, Factor: 0.2},
		}},
		AlibabaLikeTrace(3, 8, 10, 300),
	}
	windows := [][2]float64{{0, 6}, {2.25, 2.75}, {0, 1.5}, {0.4, 3.7}, {5, 5}, {3, 2}}
	for seed := uint64(1); seed <= 50; seed++ {
		for pi, p := range patterns {
			for _, w := range windows {
				ro, rs := stats.NewRNG(seed), stats.NewRNG(seed)
				want := oracleArrivals(p, ro, w[0], w[1])
				got := drain(NewArrivals(p, rs, w[0], w[1]))
				if len(got) != len(want) {
					t.Fatalf("seed %d, pattern %d (%s), window %v: %d arrivals, want %d", seed, pi, p, w, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d, pattern %d (%s), window %v: arrival %d = %v, want %v", seed, pi, p, w, i, got[i], want[i])
					}
				}
				if a, b := rs.Uint64(), ro.Uint64(); a != b {
					t.Fatalf("seed %d, pattern %d (%s), window %v: the stream left its RNG elsewhere than the oracle", seed, pi, p, w)
				}
			}
		}
	}
}

// TestArrivalsSteadyStateZeroAlloc: once the stream has drawn its largest
// minute, its buffer is big enough for every later one, and Next allocates
// nothing.
func TestArrivalsSteadyStateZeroAlloc(t *testing.T) {
	// Minute 0 offers ~3000 arrivals, every later minute ~100.
	a := NewArrivals(Trace{Rates: []float64{3000, 100}, StepMin: 1}, stats.NewRNG(9), 0, 300)
	if _, ok := a.Next(); !ok {
		t.Fatal("empty stream")
	}
	largest := cap(a.buf)
	const perRun = 200
	next := func() {
		for i := 0; i < perRun; i++ {
			if _, ok := a.Next(); !ok {
				t.Fatal("stream ran out during the measurement")
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, next); allocs != 0 {
		t.Fatalf("%d arrivals allocate %.1f times, want 0", perRun, allocs)
	}
	if cap(a.buf) != largest {
		t.Fatalf("the buffer grew from %d to %d", largest, cap(a.buf))
	}
}

func TestArrivalsRate(t *testing.T) {
	r := stats.NewRNG(3)
	arr := drain(NewArrivals(Static{Rate: 6000}, r, 0, 10)) // expect ~60000 arrivals
	if n := len(arr); math.Abs(float64(n)-60000) > 1500 {
		t.Fatalf("arrivals = %d, want ~60000", n)
	}
	// Sorted and within the window.
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals unsorted")
		}
	}
	if arr[0] < 0 || arr[len(arr)-1] >= 10*60_000 {
		t.Fatalf("arrivals outside window: [%v, %v]", arr[0], arr[len(arr)-1])
	}
}

func TestArrivalsPartialWindow(t *testing.T) {
	r := stats.NewRNG(5)
	arr := drain(NewArrivals(Static{Rate: 60000}, r, 2.25, 2.75)) // half a minute
	if n := float64(len(arr)); math.Abs(n-30000) > 1200 {
		t.Fatalf("arrivals in half-minute = %v, want ~30000", n)
	}
	for _, a := range arr {
		if a < 2.25*60_000 || a >= 2.75*60_000 {
			t.Fatalf("arrival %v outside window", a)
		}
	}
}

func TestArrivalsEmptyWindow(t *testing.T) {
	r := stats.NewRNG(5)
	a := NewArrivals(Static{Rate: 100}, r, 5, 5)
	if arr := drain(a); len(arr) != 0 {
		t.Fatalf("empty window produced %d arrivals", len(arr))
	}
	if _, ok := a.Next(); ok {
		t.Fatal("an exhausted stream produced another arrival")
	}
}

func TestInterferenceClamp(t *testing.T) {
	i := Interference{CPU: 1.5, Mem: -0.2}.Clamp(0.9)
	if i.CPU != 0.9 || i.Mem != 0 {
		t.Fatalf("clamp = %+v", i)
	}
}

func TestInjectorLevelsAreValidUtilizations(t *testing.T) {
	for _, iv := range InterferenceLevels {
		if iv.CPU < 0 || iv.CPU > 1 || iv.Mem < 0 || iv.Mem > 1 {
			t.Fatalf("profiling level %+v is not a utilization", iv)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range []Pattern{Static{1}, Diurnal{Base: 1, Peak: 2}, Trace{Name: "x"}} {
		if p.String() == "" {
			t.Fatalf("%T empty string", p)
		}
	}
}
