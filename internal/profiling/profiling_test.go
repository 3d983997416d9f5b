package profiling

import (
	"testing"

	"erms/internal/cluster"
	"erms/internal/graph"
	"erms/internal/sim"
	"erms/internal/stats"
	"erms/internal/workload"
)

// synthSamples draws samples from a known Eq. 15 ground truth.
func synthSamples(n int, seed uint64) []Sample {
	r := stats.NewRNG(seed)
	truthLow := Interval{AlphaCPU: 0.002, BetaMem: 0.001, C: 0.0005, B: 2}
	truthHigh := Interval{AlphaCPU: 0.02, BetaMem: 0.03, C: 0.004, B: 2}
	knee := func(cpu, mem float64) float64 { return 4000 - 2000*cpu - 1500*mem }
	var out []Sample
	levels := []workload.Interference{
		{CPU: 0.1, Mem: 0.1}, {CPU: 0.3, Mem: 0.3}, {CPU: 0.5, Mem: 0.3}, {CPU: 0.3, Mem: 0.6},
	}
	for i := 0; i < n; i++ {
		lvl := levels[r.Intn(len(levels))]
		w := r.Float64() * 6000
		k := knee(lvl.CPU, lvl.Mem)
		var l float64
		if w <= k {
			l = truthLow.Predict(w, lvl.CPU, lvl.Mem)
		} else {
			// Continuous at the knee.
			l = truthLow.Predict(k, lvl.CPU, lvl.Mem) + truthHigh.Slope(lvl.CPU, lvl.Mem)*(w-k)
		}
		l *= 1 + 0.03*r.NormFloat64()
		out = append(out, Sample{Workload: w, TailMs: l, CPUUtil: lvl.CPU, MemUtil: lvl.Mem})
	}
	return out
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	samples := synthSamples(2000, 1)
	train, test, err := Split(samples, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit("ms", train, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(m, test); acc < 0.8 {
		t.Fatalf("accuracy = %v, want >= 0.8 (paper reports 83-88%%)", acc)
	}
	// Knee shrinks as interference grows.
	if m.Knee(0.5, 0.3) >= m.Knee(0.1, 0.1)+200 {
		t.Fatalf("knee did not move with interference: %v vs %v", m.Knee(0.5, 0.3), m.Knee(0.1, 0.1))
	}
	// High-interval slope exceeds low-interval slope.
	aLo, _ := m.Params(false, 0.3, 0.3)
	aHi, _ := m.Params(true, 0.3, 0.3)
	if aHi <= aLo {
		t.Fatalf("slopes not ordered: low %v high %v", aLo, aHi)
	}
}

func TestFitSlopeGrowsWithInterference(t *testing.T) {
	samples := synthSamples(2000, 2)
	m, err := Fit("ms", samples, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aCold, _ := m.Params(true, 0.1, 0.1)
	aHot, _ := m.Params(true, 0.5, 0.6)
	if aHot <= aCold {
		t.Fatalf("high-interval slope should grow with interference: cold %v hot %v", aCold, aHot)
	}
}

func TestFittedHighIntervalStartsAtTheKnee(t *testing.T) {
	// A pooled high interval steep enough for heavy levels starts far below
	// the low line (and below zero) at a light level's knee.
	f := &Fitted{
		Low:         Interval{C: 0.002, B: 5},
		High:        Interval{AlphaCPU: 0.2, C: 0.01, B: -500},
		kneeDefault: 4000,
	}
	for _, lvl := range workload.InterferenceLevels {
		k := f.Knee(lvl.CPU, lvl.Mem)
		atKnee := f.Low.Predict(k, lvl.CPU, lvl.Mem)
		prev := 0.0
		for w := 0.0; w <= 3*k; w += k / 20 {
			v := f.Predict(w, lvl.CPU, lvl.Mem)
			if v < prev {
				t.Fatalf("level %+v: Predict(%v) = %v, below %v", lvl, w, v, prev)
			}
			prev = v
		}
		// The planner's high line bounds Predict from above past the knee
		// and starts no lower than the low line at the knee.
		a, b := f.Params(true, lvl.CPU, lvl.Mem)
		if a*k+b < atKnee-1e-9 {
			t.Fatalf("level %+v: high line at knee %v < low line %v", lvl, a*k+b, atKnee)
		}
		for w := k; w <= 3*k; w += k / 20 {
			if v := f.Predict(w, lvl.CPU, lvl.Mem); a*w+b < v-1e-9 {
				t.Fatalf("level %+v: high line %v below Predict %v at %v", lvl, a*w+b, v, w)
			}
		}
	}
	// A high line already above the low one at the knee is left as fitted.
	f.High.B = 50
	if _, b := f.Params(true, 0.1, 0.1); b != 50 {
		t.Fatalf("intercept of a continuous fit moved: %v", b)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit("ms", nil, FitConfig{}); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := Fit("ms", synthSamples(5, 3), FitConfig{}); err == nil {
		t.Fatal("too-few samples accepted")
	}
}

func TestFitAllReportsFailures(t *testing.T) {
	in := map[string][]Sample{
		"good": synthSamples(500, 4),
		"bad":  synthSamples(3, 5),
	}
	models, failed := FitAll(in, FitConfig{})
	if _, ok := models["good"]; !ok {
		t.Fatal("good microservice not fitted")
	}
	if len(failed) != 1 || failed[0] != "bad" {
		t.Fatalf("failed = %v", failed)
	}
}

func TestSplit(t *testing.T) {
	s := synthSamples(100, 6)
	train, test, err := Split(s, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 70 || len(test) != 30 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	if _, _, err := Split(s, 0); err == nil {
		t.Fatal("bad fraction accepted")
	}
	if _, _, err := Split(s[:1], 0.5); err == nil {
		t.Fatal("degenerate split accepted")
	}
}

func TestBaselinesComparableAccuracy(t *testing.T) {
	samples := synthSamples(1200, 7)
	train, test, _ := Split(samples, 0.8)

	erms, err := Fit("ms", train, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FitGBDTBaseline(train)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := FitNNBaseline(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	accE := Evaluate(erms, test)
	accG := EvaluatePredictor(g, test)
	accN := EvaluatePredictor(nn, test)
	// Fig. 10a: all three land in a comparable band.
	for name, acc := range map[string]float64{"erms": accE, "gbdt": accG, "nn": accN} {
		if acc < 0.7 {
			t.Fatalf("%s accuracy = %v", name, acc)
		}
	}
}

func TestNNDegradesWithLessData(t *testing.T) {
	// Fig. 10b: with scarce training data the NN falls off faster than the
	// piece-wise fit.
	samples := synthSamples(1500, 8)
	_, test, _ := Split(samples, 0.8)
	small := samples[:90]

	erms, err := Fit("ms", small, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := FitNNBaseline(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	accE := Evaluate(erms, test)
	accN := EvaluatePredictor(nn, test)
	if accE < accN-0.05 {
		t.Fatalf("piece-wise fit (%v) should hold up at least as well as NN (%v) on scarce data", accE, accN)
	}
}

func TestBaselineErrors(t *testing.T) {
	if _, err := FitGBDTBaseline(nil); err == nil {
		t.Fatal("empty gbdt accepted")
	}
	if _, err := FitNNBaseline(nil, 1); err == nil {
		t.Fatal("empty nn accepted")
	}
}

func TestAnalyticModelShape(t *testing.T) {
	m := NewAnalytic(sim.ServiceProfile{BaseMs: 2}, 4, cluster.DefaultInterference)
	// Knee shrinks with interference.
	if m.Knee(0.6, 0.6) >= m.Knee(0.1, 0.1) {
		t.Fatal("analytic knee should shrink with interference")
	}
	// High slope > low slope.
	aLo, bLo := m.Params(false, 0.2, 0.2)
	aHi, _ := m.Params(true, 0.2, 0.2)
	if aHi <= aLo {
		t.Fatalf("analytic slopes not ordered: %v %v", aLo, aHi)
	}
	if bLo <= 0 {
		t.Fatalf("intercept = %v", bLo)
	}
	// Both intervals share the idle floor as intercept, so crossing the knee
	// can only jump upward (conservative for planning).
	k := m.Knee(0.2, 0.2)
	lo := m.Predict(k*0.999, 0.2, 0.2)
	hi := m.Predict(k*1.001, 0.2, 0.2)
	if hi < lo {
		t.Fatalf("high interval below low at knee: %v vs %v", lo, hi)
	}
	// Monotone in workload on each side of the knee.
	prev := 0.0
	for w := 0.0; w < 2*k; w += k / 10 {
		v := m.Predict(w, 0.2, 0.2)
		if v < prev && !(w-k/10 <= k && w > k) {
			t.Fatalf("analytic model not monotone at %v", w)
		}
		prev = v
	}
}

func TestAnalyticModels(t *testing.T) {
	ms := AnalyticModels(
		map[string]sim.ServiceProfile{"a": {BaseMs: 1}, "b": {BaseMs: 2}},
		map[string]cluster.ContainerSpec{"a": {Threads: 8}},
		cluster.DefaultInterference,
	)
	if len(ms) != 2 {
		t.Fatalf("models = %d", len(ms))
	}
	// a has 8 threads, b defaults to 4; a's saturation (and knee) is higher
	// both from threads and base time.
	if ms["a"].Knee(0.1, 0.1) <= ms["b"].Knee(0.1, 0.1) {
		t.Fatal("thread count did not raise the knee")
	}
}

// TestFitOnSimulatorData is the honest end-to-end profiling pipeline: sweep
// workloads and interference levels in the simulator, aggregate per-minute
// samples, fit Eq. 15, and verify the fit predicts held-out workloads.
func TestFitOnSimulatorData(t *testing.T) {
	collect := func(rate float64, bg workload.Interference, seed uint64) []Sample {
		g := graph.New("svc", "A")
		cl := cluster.New(1, cluster.PaperHost)
		if _, err := cl.Place(cluster.PaperContainer("A"), 0); err != nil {
			t.Fatal(err)
		}
		cl.SetBackground(0, bg)
		cfg := sim.Config{
			Seed:         seed,
			Cluster:      cl,
			Interference: cluster.DefaultInterference,
			Profiles:     map[string]sim.ServiceProfile{"A": {BaseMs: 20, CV: 0.5}},
			Graphs:       []*graph.Graph{g},
			Patterns:     map[string]workload.Pattern{"svc": workload.Static{Rate: rate}},
			DurationMin:  3.5,
			WarmupMin:    0.5,
		}
		rt, err := sim.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()
		return FromMinuteSamples(res.Samples)["A"]
	}

	var train []Sample
	levels := []workload.Interference{{CPU: 0.1, Mem: 0.1}, {CPU: 0.5, Mem: 0.35}, {CPU: 0.3, Mem: 0.55}}
	rates := []float64{1_000, 3_000, 6_000, 8_500, 10_500, 11_500}
	seed := uint64(1)
	for _, lvl := range levels {
		for _, rate := range rates {
			train = append(train, collect(rate, lvl, seed)...)
			seed++
		}
	}
	m, err := Fit("A", train, FitConfig{MinBucket: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out workload, idle host: prediction within 40% of measurement
	// (simulated tails are noisy at 2-minute windows).
	test := collect(4_500, levels[0], 99)
	if acc := Evaluate(m, test); acc < 0.6 {
		t.Fatalf("simulator-trained accuracy = %v", acc)
	}
	// Interference steepens the fitted high-interval slope.
	aCold, _ := m.Params(true, 0.1, 0.1)
	aHot, _ := m.Params(true, 0.5, 0.35)
	if aHot < aCold {
		t.Fatalf("fitted slope should grow with interference: %v vs %v", aCold, aHot)
	}
}
