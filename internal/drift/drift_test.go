package drift

import (
	"math"
	"testing"

	"erms/internal/profiling"
	"erms/internal/stats"
)

// lineModel is a fixed knee-less linear model: Predict = slope·w + b.
type lineModel struct {
	slope, b, knee float64
}

func (m lineModel) Knee(_, _ float64) float64 { return m.knee }
func (m lineModel) Params(high bool, _, _ float64) (float64, float64) {
	return m.slope, m.b
}
func (m lineModel) Predict(w, c, mem float64) float64 { return m.slope*w + m.b }

// window builds n samples whose observed tail is ratio× the model's
// prediction at workload w.
func window(m profiling.Model, n int, w, ratio float64) []profiling.Sample {
	out := make([]profiling.Sample, n)
	for i := range out {
		out[i] = profiling.Sample{Workload: w, TailMs: ratio * m.Predict(w, 0.3, 0.3), CPUUtil: 0.3, MemUtil: 0.3}
	}
	return out
}

func TestNoSwapBelowThreshold(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": m}
	for w := 0; w < 6; w++ {
		// 1.5× observed/predicted: under the 1.75 trigger ratio.
		swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 1.5)})
		if len(swaps) != 0 {
			t.Fatalf("window %d: unexpected swap below threshold", w)
		}
	}
	st := d.Stats()
	if st.Detections != 0 || st.Swaps != 0 {
		t.Fatalf("stats = %+v, want no detections", st)
	}
	if math.Abs(st.MaxScore-0.5) > 1e-9 {
		t.Fatalf("max score = %v, want 0.5", st.MaxScore)
	}
}

func TestSingleSpikeDoesNotSwap(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": m}
	// One drifted window, then back to normal: hysteresis must hold.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap after a single spike")
	}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 1)}); len(swaps) != 0 {
		t.Fatal("swap after recovery")
	}
	// Another single spike later: the streak must have reset.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap after second isolated spike — streak did not reset")
	}
	if st := d.Stats(); st.Detections != 2 || st.Swaps != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAlternatingNoiseNeverFlaps(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": m}
	for w := 0; w < 20; w++ {
		ratio := 1.0
		if w%2 == 0 {
			ratio = 3
		}
		if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, ratio)}); len(swaps) != 0 {
			t.Fatalf("window %d: alternating noise triggered a swap", w)
		}
	}
}

func TestConsecutiveDriftSwaps(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": m}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap one window early")
	}
	swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)})
	if len(swaps) != 1 {
		t.Fatalf("got %d swaps, want 1", len(swaps))
	}
	sw := swaps[0]
	if sw.Microservice != "svc" {
		t.Fatalf("swap for %q", sw.Microservice)
	}
	if math.Abs(sw.Score-2) > 1e-9 {
		t.Fatalf("score = %v, want 2 (3× observed)", sw.Score)
	}
	// Same workload in every sample: segmented refit is singular, so this
	// must be the recalibration fallback with ratio 3 (all ratios equal, any
	// quantile is 3).
	if sw.Segmented {
		t.Fatal("expected fallback recalibration, got segmented refit")
	}
	if math.Abs(sw.Ratio-3) > 1e-9 {
		t.Fatalf("ratio = %v, want 3", sw.Ratio)
	}
	// The swapped model predicts ~3× the old at the observed point.
	oldP, newP := m.Predict(100, 0.3, 0.3), sw.Model.Predict(100, 0.3, 0.3)
	if newP <= oldP {
		t.Fatalf("swapped model predicts %v, old %v — not recalibrated", newP, oldP)
	}
	st := d.Stats()
	if st.Swaps != 1 || st.Fallbacks != 1 || st.Refits != 0 || st.Detections != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Streak reset: the next drifted window must not immediately re-swap.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap immediately after a swap — streak not reset")
	}
}

func TestNoSignalWindowPreservesStreak(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2, MinSamples: 2})
	models := map[string]profiling.Model{"svc": m}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("early swap")
	}
	// Observability gap: no samples at all, then a window with too few.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{}); len(swaps) != 0 {
		t.Fatal("swap on empty window")
	}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 1, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap on under-sampled window")
	}
	// The streak survived the gaps: one more drifted window completes it.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 1 {
		t.Fatalf("streak did not survive no-signal windows: %d swaps", len(swaps))
	}
}

func TestDownwardDriftGated(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	models := map[string]profiling.Model{"svc": m}
	obs := func() map[string][]profiling.Sample {
		return map[string][]profiling.Sample{"svc": window(m, 4, 100, 0.25)}
	}
	// Default: observed far below prediction is the models' safe-side bias,
	// not drift.
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	for w := 0; w < 4; w++ {
		if swaps := d.ObserveWindow(models, obs()); len(swaps) != 0 {
			t.Fatal("downward deviation swapped with Downward off")
		}
	}
	if st := d.Stats(); st.Detections != 0 || st.MaxScore != 0 {
		t.Fatalf("downward-off stats = %+v", st)
	}
	// With Downward on, 0.25× is a score of 3 and swaps after the streak.
	d = NewDetector(Config{Threshold: 0.75, Consecutive: 2, Downward: true})
	d.ObserveWindow(models, obs())
	swaps := d.ObserveWindow(models, obs())
	if len(swaps) != 1 {
		t.Fatalf("downward-on: %d swaps, want 1", len(swaps))
	}
	if r := swaps[0].Ratio; math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("downward ratio = %v, want 0.25", r)
	}
	if p := swaps[0].Model.Predict(100, 0.3, 0.3); p >= m.Predict(100, 0.3, 0.3) {
		t.Fatalf("downward swap did not lower predictions: %v", p)
	}
}

func TestRecalibrationRatioClamped(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 1, MaxRatio: 4})
	models := map[string]profiling.Model{"svc": m}
	swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 25)})
	if len(swaps) != 1 {
		t.Fatalf("%d swaps", len(swaps))
	}
	if swaps[0].Ratio != 4 {
		t.Fatalf("ratio = %v, want clamped to 4", swaps[0].Ratio)
	}
}

func TestSegmentedRefitPath(t *testing.T) {
	// Observed latency follows a genuinely different piece-wise curve than
	// the frozen model, across a diverse workload range: the pooled streak
	// passes the refit gates and a full segmented fit wins.
	frozen := lineModel{slope: 0.005, b: 5, knee: 10_000}
	truth := func(w float64) float64 {
		if w <= 300 {
			return 0.05*w + 20
		}
		return 0.25*(w-300) + 0.05*300 + 20
	}
	mk := func(lo, hi float64, n int) []profiling.Sample {
		out := make([]profiling.Sample, n)
		for i := range out {
			w := lo + (hi-lo)*float64(i)/float64(n-1)
			out[i] = profiling.Sample{Workload: w, TailMs: truth(w), CPUUtil: 0.3, MemUtil: 0.3}
		}
		return out
	}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2, MinRefitSamples: 8, MinDistinct: 4})
	models := map[string]profiling.Model{"svc": frozen}
	d.ObserveWindow(models, map[string][]profiling.Sample{"svc": mk(50, 400, 8)})
	swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": mk(100, 600, 8)})
	if len(swaps) != 1 {
		t.Fatalf("%d swaps, want 1", len(swaps))
	}
	sw := swaps[0]
	if !sw.Segmented {
		t.Fatal("expected a segmented refit, got recalibration fallback")
	}
	if sw.Ratio != 1 {
		t.Fatalf("segmented swap ratio = %v, want 1", sw.Ratio)
	}
	// The refitted model tracks the true curve far better than the frozen one.
	for _, w := range []float64{100, 250, 450, 550} {
		got, want := sw.Model.Predict(w, 0.3, 0.3), truth(w)
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("refit predict(%v) = %v, truth %v", w, got, want)
		}
		if math.Abs(frozen.Predict(w, 0, 0)-want)/want < 0.25 {
			t.Fatalf("frozen model already accurate at %v — test lost its point", w)
		}
	}
	if st := d.Stats(); st.Refits != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScaledModelMath(t *testing.T) {
	base := lineModel{slope: 2, b: 10, knee: 500}
	s := NewScaledModel(base, 2)
	if k := s.Knee(0, 0); math.Abs(k-250) > 1e-12 {
		t.Fatalf("scaled knee = %v, want 250", k)
	}
	a, b := s.Params(false, 0, 0)
	if math.Abs(a-8) > 1e-12 || math.Abs(b-20) > 1e-12 {
		t.Fatalf("scaled params = (%v, %v), want (8, 20)", a, b)
	}
	// Nested recalibrations collapse into one wrapper with multiplied ratio.
	s2 := NewScaledModel(s, 1.5)
	if s2.Base != profiling.Model(base) {
		t.Fatal("nested ScaledModel did not collapse")
	}
	if math.Abs(s2.Ratio-3) > 1e-12 {
		t.Fatalf("collapsed ratio = %v, want 3", s2.Ratio)
	}
	// Predict switches segment at the scaled knee.
	low := s.Predict(100, 0, 0)
	if math.Abs(low-(8*100+20)) > 1e-9 {
		t.Fatalf("scaled predict = %v", low)
	}
}

func TestSegmentModelConstruction(t *testing.T) {
	fit := stats.SegmentedFit{
		Knee: math.Inf(1),
		Low:  stats.LineFit{Slope: 0.1, Intercept: 5},
		High: stats.LineFit{Slope: -0.2, Intercept: -1},
	}
	m := NewSegmentModel("svc", fit, 400)
	// +Inf knee pins to 2× max observed workload.
	if k := m.Knee(0, 0); k != 800 {
		t.Fatalf("pinned knee = %v, want 800", k)
	}
	// A negative high slope floors at minSlope; the high intercept is kept
	// as fitted (continuity at the knee makes negative values legitimate).
	a, b := m.Params(true, 0, 0)
	if a != minSlope || b != -1 {
		t.Fatalf("high params = (%v, %v)", a, b)
	}
	a, b = m.Params(false, 0, 0)
	if a != 0.1 || b != 5 {
		t.Fatalf("low params = (%v, %v)", a, b)
	}
	// The low intercept — the planner's latency floor — does floor at 0.
	neg := NewSegmentModel("svc", stats.SegmentedFit{
		Knee: 100, Low: stats.LineFit{Slope: 0.1, Intercept: -3},
	}, 400)
	if _, b := neg.Params(false, 0, 0); b != 0 {
		t.Fatalf("low intercept = %v, want floored to 0", b)
	}
	// Zero max workload still yields a positive knee.
	if k := NewSegmentModel("svc", fit, 0).Knee(0, 0); k <= 0 {
		t.Fatalf("knee = %v for zero workload", k)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDetector(Config{})
	c := d.cfg
	if c.Threshold != 0.75 || c.Consecutive != 2 || c.MinSamples != 1 ||
		c.MaxRatio != 4 || c.MinRefitSamples != 8 || c.MinDistinct != 4 || c.Downward {
		t.Fatalf("defaults = %+v", c)
	}
}
