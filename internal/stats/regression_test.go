package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if f.Predict(10) != 21 {
		t.Fatalf("predict = %v", f.Predict(10))
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.5*xs[i] + 4 + r.NormFloat64()*0.1
	}
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-0.5) > 0.01 || math.Abs(f.Intercept-4) > 0.1 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for 1 point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrSingular {
		t.Fatal("expected ErrSingular for constant x")
	}
}

func TestFitMultiExact(t *testing.T) {
	// y = 3*x0 - 2*x1 + 7
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {4, 1}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x[0] - 2*x[1] + 7
	}
	f, err := FitMulti(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Coef[0]-3) > 1e-5 || math.Abs(f.Coef[1]+2) > 1e-5 || math.Abs(f.Intercept-7) > 1e-5 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitMultiNoisyRecovery(t *testing.T) {
	r := NewRNG(5)
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := r.Float64()*10, r.Float64()*5, r.Float64()
		xs[i] = []float64{a, b, c}
		ys[i] = 1.5*a + 0.25*b - 4*c + 2 + r.NormFloat64()*0.05
	}
	f, err := FitMulti(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 0.25, -4}
	for i, w := range want {
		if math.Abs(f.Coef[i]-w) > 0.02 {
			t.Fatalf("coef[%d] = %v, want %v", i, f.Coef[i], w)
		}
	}
	if math.Abs(f.Intercept-2) > 0.05 {
		t.Fatalf("intercept = %v", f.Intercept)
	}
}

func TestFitMultiErrors(t *testing.T) {
	if _, err := FitMulti(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitMulti([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFitSegmentedRecoversKnee(t *testing.T) {
	// Piece-wise: slope 0.2 below x=50, slope 2.0 above, continuous at knee.
	var xs, ys []float64
	for x := 0.0; x <= 100; x += 1 {
		y := 0.2*x + 10
		if x > 50 {
			y = 2.0*(x-50) + 0.2*50 + 10
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	f, err := FitSegmented(xs, ys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Knee-50) > 2 {
		t.Fatalf("knee = %v, want ~50", f.Knee)
	}
	if math.Abs(f.Low.Slope-0.2) > 0.02 {
		t.Fatalf("low slope = %v", f.Low.Slope)
	}
	if math.Abs(f.High.Slope-2.0) > 0.05 {
		t.Fatalf("high slope = %v", f.High.Slope)
	}
	// Predictions land on the true curve.
	if math.Abs(f.Predict(25)-(0.2*25+10)) > 0.5 {
		t.Fatalf("predict(25) = %v", f.Predict(25))
	}
	if math.Abs(f.Predict(80)-(2.0*30+20)) > 1.5 {
		t.Fatalf("predict(80) = %v", f.Predict(80))
	}
}

func TestFitSegmentedFallsBackToLine(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{2, 4, 6}
	f, err := FitSegmented(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f.Knee, 1) {
		// With 3 points and minSeg 2 there is no valid split, so the knee
		// must stay at +Inf (single line).
		t.Fatalf("knee = %v, want +Inf", f.Knee)
	}
	if math.Abs(f.Predict(5)-10) > 1e-9 {
		t.Fatalf("predict = %v", f.Predict(5))
	}
}

func TestFitSegmentedSSENotWorseThanSingleLine(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed) + 99)
		n := 30 + r.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()
			ys[i] = r.NormFloat64() * 10
		}
		seg, err := FitSegmented(xs, ys, 3)
		if err != nil {
			return false
		}
		single, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		var sse float64
		for i := range xs {
			d := ys[i] - single.Predict(xs[i])
			sse += d * d
		}
		return seg.SSE <= sse+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFitSegmentedDegenerateInput(t *testing.T) {
	// All x equal: every candidate split and the single-line fallback are
	// singular, so no fit exists. This used to return a zero-value
	// SegmentedFit with a nil error — a "model" predicting 0 ms everywhere
	// that downstream accuracy checks scored as grossly wrong instead of
	// absent.
	xs := []float64{5, 5, 5, 5, 5, 5}
	ys := []float64{1, 2, 3, 4, 5, 6}
	if _, err := FitSegmented(xs, ys, 2); err != ErrSingular {
		t.Fatalf("degenerate fit error = %v, want ErrSingular", err)
	}
	// Same shape via the no-valid-split path: too few points for any split
	// AND constant x, so the single-line fallback is singular too.
	if _, err := FitSegmented([]float64{3, 3, 3}, []float64{1, 2, 3}, 2); err != ErrSingular {
		t.Fatal("expected ErrSingular for short constant-x input")
	}
}

func TestFitSegmentedStillFitsNearDegenerate(t *testing.T) {
	// Two distinct x values is enough for the single-line fallback: the
	// degenerate guard must not over-reject.
	xs := []float64{1, 1, 2, 2}
	ys := []float64{3, 3, 5, 5}
	f, err := FitSegmented(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Predict(3)-7) > 1e-9 {
		t.Fatalf("predict(3) = %v, want 7", f.Predict(3))
	}
}

func TestAccuracyAllNonpositiveActuals(t *testing.T) {
	// Every actual <= 0 is skipped, so there is no signal; the result is
	// NaN (same contract as empty input), not a spurious 0 or 1.
	if !math.IsNaN(Accuracy([]float64{5, 6}, []float64{0, -1})) {
		t.Fatal("all-nonpositive actuals should yield NaN accuracy")
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]float64{10, 20}, []float64{10, 20}); got != 1 {
		t.Fatalf("perfect accuracy = %v", got)
	}
	if got := Accuracy([]float64{11}, []float64{10}); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("10%% error accuracy = %v", got)
	}
	// Gross over-prediction clamps at 0 rather than going negative.
	if got := Accuracy([]float64{100}, []float64{10}); got != 0 {
		t.Fatalf("clamped accuracy = %v", got)
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Fatal("empty accuracy should be NaN")
	}
	// Zero actuals are skipped.
	if got := Accuracy([]float64{5, 11}, []float64{0, 10}); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("accuracy skipping zero actual = %v", got)
	}
}
