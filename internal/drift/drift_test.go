package drift

import (
	"math"
	"testing"

	"erms/internal/profiling"
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
	if st := d.Stats(); math.Abs(st.MaxScore-2) > 1e-9 {
		t.Fatalf("score = %v, want 2 (3× observed)", st.MaxScore)
	}
	// All ratios equal, so any quantile is 3.
	if r := ratioOf(sw); math.Abs(r-3) > 1e-9 {
		t.Fatalf("ratio = %v, want 3", r)
	}
	// The swapped model predicts ~3× the old at the observed point.
	oldP, newP := m.Predict(100, 0.3, 0.3), sw.Model.Predict(100, 0.3, 0.3)
	if newP <= oldP {
		t.Fatalf("swapped model predicts %v, old %v — not recalibrated", newP, oldP)
	}
	st := d.Stats()
	if st.Swaps != 1 || st.Detections != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Streak reset: the next drifted window must not immediately re-swap.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("swap immediately after a swap — streak not reset")
	}
}

// ratioOf is the service-time recalibration a swap applies: the Ratio of
// the ScaledModel it installs over the old model.
func ratioOf(sw Swap) float64 {
	return sw.Model.(*ScaledModel).Ratio
}

func TestNoSignalWindowPreservesStreak(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": m}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 3)}); len(swaps) != 0 {
		t.Fatal("early swap")
	}
	// Observability gap: no samples at all, then a window whose only samples
	// carry no tail latency.
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{}); len(swaps) != 0 {
		t.Fatal("swap on empty window")
	}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 0)}); len(swaps) != 0 {
		t.Fatal("swap on a window with no usable sample")
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
	if r := ratioOf(swaps[0]); math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("downward ratio = %v, want 0.25", r)
	}
	if p := swaps[0].Model.Predict(100, 0.3, 0.3); p >= m.Predict(100, 0.3, 0.3) {
		t.Fatalf("downward swap did not lower predictions: %v", p)
	}
}

func TestRecalibrationRatioClamped(t *testing.T) {
	m := lineModel{slope: 0.01, b: 10, knee: 1000}
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 1})
	models := map[string]profiling.Model{"svc": m}
	swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": window(m, 4, 100, 25)})
	if len(swaps) != 1 {
		t.Fatalf("%d swaps", len(swaps))
	}
	if r := ratioOf(swaps[0]); r != maxRatio {
		t.Fatalf("ratio = %v, want clamped to %v", r, maxRatio)
	}
}

// utilModel is a frozen model with an interference response: its knee
// shrinks and its slope steepens as host CPU utilization rises, as §5.2's
// Eq. 15 has it.
type utilModel struct {
	slope, b, knee float64
}

func (m utilModel) Knee(cpu, _ float64) float64 { return m.knee * (1 - cpu) }
func (m utilModel) Params(high bool, cpu, _ float64) (float64, float64) {
	return m.slope * (1 + cpu), m.b
}
func (m utilModel) Predict(w, cpu, mem float64) float64 {
	a, b := m.Params(w > m.Knee(cpu, mem), cpu, mem)
	return a*w + b
}

func TestLongStreakRecalibrates(t *testing.T) {
	// Observed latency follows a differently shaped piece-wise curve than
	// the frozen model, across a diverse workload range: two windows of 8
	// samples over 15 distinct workloads. The recalibration is the only
	// re-fit, and it keeps the frozen model's (C, M) response. It rescales
	// the service time and cannot bend the curve's shape; that is the case
	// it gives up.
	frozen := utilModel{slope: 0.05, b: 5, knee: 10_000}
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
	d := NewDetector(Config{Threshold: 0.75, Consecutive: 2})
	models := map[string]profiling.Model{"svc": frozen}
	if swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": mk(50, 400, 8)}); len(swaps) != 0 {
		t.Fatal("swap one window early")
	}
	swaps := d.ObserveWindow(models, map[string][]profiling.Sample{"svc": mk(100, 600, 8)})
	if len(swaps) != 1 {
		t.Fatalf("%d swaps, want 1", len(swaps))
	}
	sm, ok := swaps[0].Model.(*ScaledModel)
	if !ok {
		t.Fatalf("swap installs a %T, want a *ScaledModel", swaps[0].Model)
	}
	if sm.Ratio <= 1 || sm.Ratio > maxRatio {
		t.Fatalf("ratio = %v, want an upward step within (1, %v]", sm.Ratio, maxRatio)
	}
	if st := d.Stats(); st.Swaps != 1 || st.Detections != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The knee still moves with CPU utilization, by the frozen model's ratio.
	const lo, hi = 0.1, 0.6
	want := frozen.Knee(lo, 0.3) / frozen.Knee(hi, 0.3)
	if got := sm.Knee(lo, 0.3) / sm.Knee(hi, 0.3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("knee(%v)/knee(%v) = %v, want the frozen model's %v", lo, hi, got, want)
	}
	if sm.Knee(hi, 0.3) >= sm.Knee(lo, 0.3) {
		t.Fatal("swapped knee does not shrink with utilization")
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

func TestConfigDefaults(t *testing.T) {
	d := NewDetector(Config{})
	c := d.cfg
	if c.Threshold != 0.75 || c.Consecutive != 2 || c.Downward {
		t.Fatalf("defaults = %+v", c)
	}
}
