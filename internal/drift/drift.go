// Package drift closes Erms' online profiling loop (ROADMAP item 4). The
// offline profiler (§5.2) fits piece-wise linear latency models once and the
// planner treats them as frozen, so any mid-run shift in a microservice's
// service time — a dependency upgrade, a noisy neighbour, a kernel change —
// silently invalidates Eq. 1 and the planner keeps allocating for a world
// that no longer exists.
//
// The Detector is a streaming per-microservice comparator: each
// reconciliation window it takes the live profiling samples the simulator's
// tracing substrate produced (the same (L, γ, C, M) tuples offline profiling
// consumes) and measures how far the observed tail latency sits from the
// frozen model's prediction at the observed workload and interference. When
// the deviation exceeds a configured threshold for N consecutive windows
// (hysteresis — a single noisy window never triggers), the detector re-fits
// a model from the drifted windows' own samples and returns it as a Swap.
//
// Re-fitting is two-tiered:
//
//   - when the drifted streak spans enough workload diversity, a full
//     piece-wise linear re-fit via stats.FitSegmented — the same model family
//     the offline profiler uses (the internal/mlearn knee trees stay
//     untouched: a live streak holds one interference regime, so there is
//     nothing for a (C, M) → σ tree to learn);
//   - otherwise an incremental recalibration: the observed/predicted latency
//     ratio, taken at a conservative quantile so queueing inflation does not
//     masquerade as service-time drift, rescales the frozen model
//     (ScaledModel). Recalibrations compose — if the first step
//     under-corrects, the still-drifting windows trigger another — so the
//     model walks to the new regime in bounded, clamped steps.
//
// Swapped models are fresh immutable values; handing one to the planner is a
// cheap, correct invalidation event under the template cache's
// parameter-hash/pointer-identity contract (scaling.Template.ParamsMatch):
// the stale template misses, recompiles against the new model, and every
// other service's template stays hot.
//
// Everything is deterministic: microservices are visited in sorted order,
// scores are pure functions of the window's samples, and no clocks or RNGs
// are consulted — a drift-enabled run is byte-identical at any worker count.
package drift

import (
	"math"
	"sort"

	"erms/internal/profiling"
	"erms/internal/stats"
)

// Config tunes the detector. The zero value is usable: every field has a
// documented default applied by NewDetector.
type Config struct {
	// Threshold is the relative deviation of observed from predicted tail
	// latency that counts as a drifted window: a window is flagged when the
	// median observed/predicted ratio exceeds 1+Threshold (or falls below
	// 1/(1+Threshold) with Downward). Default 0.75 — the paper's secant
	// linearizations over-estimate by design, so genuine drift shows up as
	// observations well above prediction, not modest wobble.
	Threshold float64
	// Consecutive is the hysteresis depth: a microservice must stay over
	// threshold for this many consecutive evaluated windows before a re-fit
	// fires. Windows with no signal (observability gaps, no usable sample)
	// neither extend nor reset the streak. Default 2.
	Consecutive int
	// Downward also treats observed latency far *below* prediction as drift
	// (a dependency got faster; the model over-allocates). Off by default:
	// the analytic/fitted models deliberately over-estimate, so downward
	// deviation is the expected safe-side bias, not drift.
	Downward bool
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 0.75
	}
	if c.Consecutive <= 0 {
		c.Consecutive = 2
	}
	return c
}

const (
	// maxRatio clamps one recalibration step to [1/maxRatio, maxRatio].
	// Under-correction is safe — the next still-drifted streak compounds
	// another step — while an unclamped ratio taken during a queueing storm
	// could demand absurd allocations.
	maxRatio = 4
	// minRefitSamples and minDistinct gate the full segmented re-fit: the
	// pooled streak must hold at least minRefitSamples samples spanning at
	// least minDistinct distinct workloads (stats.FitSegmented is singular
	// below that). Streaks failing the gate fall back to recalibration.
	minRefitSamples = 8
	minDistinct     = 4
)

// Swap is one model replacement the detector decided on: hand Model to the
// planner under Microservice's key and the drift is absorbed.
type Swap struct {
	Microservice string
	Model        profiling.Model
	// Segmented marks a full stats.FitSegmented re-fit; false is an
	// incremental ScaledModel recalibration.
	Segmented bool
}

// Stats are the detector's cumulative counters, exported under erms.self.*.
type Stats struct {
	// Windows counts ObserveWindow calls.
	Windows int
	// Detections counts (microservice, window) pairs flagged over threshold.
	Detections int
	// Refits counts full segmented re-fits; Fallbacks counts ScaledModel
	// recalibrations. Swaps = Refits + Fallbacks.
	Refits    int
	Fallbacks int
	Swaps     int
	// MaxScore is the worst drift score seen across the run.
	MaxScore float64
}

// msState is the per-microservice streak bookkeeping.
type msState struct {
	streak  int
	pending []profiling.Sample // samples of the current drifted streak
	ratios  []float64          // observed/predicted per pending sample
}

// Detector is the streaming drift detector. It is not safe for concurrent
// use; the control loop drives it from one goroutine per controller.
type Detector struct {
	cfg   Config
	state map[string]*msState
	stats Stats
}

// NewDetector builds a detector with cfg's defaults applied.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults(), state: make(map[string]*msState)}
}

// Stats returns a copy of the cumulative counters.
func (d *Detector) Stats() Stats { return d.stats }

// ObserveWindow scores one reconciliation window: samples maps each
// microservice to the window's live profiling samples, models supplies the
// predictions to compare against (the planner's current models, including
// any earlier swaps). It returns the model swaps the window triggered, in
// sorted microservice order; the caller owns installing them.
//
// A microservice absent from samples, or present with no usable point (a
// positive observed tail and a positive finite prediction), is a no-signal
// window for it: the streak neither advances nor resets (an observability
// gap must not erase accumulated evidence).
func (d *Detector) ObserveWindow(models map[string]profiling.Model, samples map[string][]profiling.Sample) []Swap {
	d.stats.Windows++
	mss := make([]string, 0, len(samples))
	for ms := range samples {
		if _, ok := models[ms]; ok {
			mss = append(mss, ms)
		}
	}
	sort.Strings(mss)

	var swaps []Swap
	for _, ms := range mss {
		model := models[ms]
		window := samples[ms]
		usable := make([]profiling.Sample, 0, len(window))
		ratios := make([]float64, 0, len(window))
		for _, s := range window {
			if s.TailMs <= 0 {
				continue
			}
			pred := model.Predict(s.Workload, s.CPUUtil, s.MemUtil)
			if !(pred > 0) || math.IsInf(pred, 1) {
				continue
			}
			usable = append(usable, s)
			ratios = append(ratios, s.TailMs/pred)
		}
		if len(usable) == 0 {
			continue // no signal: streak untouched
		}
		st, ok := d.state[ms]
		if !ok {
			st = &msState{}
			d.state[ms] = st
		}
		med := stats.Quantile(ratios, 0.5)
		score := med - 1
		if d.cfg.Downward && med < 1 {
			score = 1/med - 1
		}
		if score < 0 {
			score = 0
		}
		if score > d.stats.MaxScore {
			d.stats.MaxScore = score
		}

		if score <= d.cfg.Threshold {
			st.streak = 0
			st.pending = st.pending[:0]
			st.ratios = st.ratios[:0]
			continue
		}
		d.stats.Detections++
		st.streak++
		st.pending = append(st.pending, usable...)
		st.ratios = append(st.ratios, ratios...)
		if st.streak < d.cfg.Consecutive {
			continue
		}
		sw, ok := d.refit(ms, model, st.pending, st.ratios)
		st.streak = 0
		st.pending = nil
		st.ratios = nil
		if !ok {
			continue
		}
		d.stats.Swaps++
		if sw.Segmented {
			d.stats.Refits++
		} else {
			d.stats.Fallbacks++
		}
		swaps = append(swaps, sw)
	}
	return swaps
}

// refit builds a replacement model from the drifted streak's pooled samples.
func (d *Detector) refit(ms string, old profiling.Model, pending []profiling.Sample, ratios []float64) (Swap, bool) {
	if m, ok := d.segmentedRefit(pending); ok {
		return Swap{Microservice: ms, Model: m, Segmented: true}, true
	}
	r := d.recalibrationRatio(ratios)
	if r == 1 {
		return Swap{}, false
	}
	return Swap{Microservice: ms, Model: NewScaledModel(old, r)}, true
}

// segmentedRefit attempts the full piece-wise re-fit. It only accepts a
// model the planner can consume: non-negative slopes (floored later), a
// positive latency floor, and a positive knee.
func (d *Detector) segmentedRefit(pending []profiling.Sample) (profiling.Model, bool) {
	if len(pending) < minRefitSamples {
		return nil, false
	}
	distinct := make(map[float64]bool, len(pending))
	xs := make([]float64, len(pending))
	ys := make([]float64, len(pending))
	maxW := 0.0
	for i, s := range pending {
		xs[i] = s.Workload
		ys[i] = s.TailMs
		distinct[s.Workload] = true
		if s.Workload > maxW {
			maxW = s.Workload
		}
	}
	if len(distinct) < minDistinct {
		return nil, false
	}
	seg, err := stats.FitSegmented(xs, ys, 2)
	if err != nil {
		return nil, false
	}
	if seg.Low.Slope < 0 || seg.High.Slope < 0 || seg.Low.Intercept <= 0 {
		// A negative slope or nonpositive floor is noise, not a latency
		// curve; the planner's closed forms would mis-solve against it.
		return nil, false
	}
	m := NewSegmentModel(seg, maxW)
	if knee := m.Knee(0, 0); m.Predict(knee, 0, 0) <= 0 {
		// The high segment may carry a negative intercept (continuity at
		// the knee), but it must still be positive on its own domain.
		return nil, false
	}
	return m, true
}

// recalibrationRatio derives one clamped service-time rescaling step from
// the streak's observed/predicted ratios. Queueing inflates observations
// well past the service-time shift that caused them, so the estimate is
// taken at a conservative quantile on the drift side: the 25th percentile
// for upward drift (closest to the uncontended samples), the 75th for
// downward. The result is clamped to [1/maxRatio, maxRatio].
func (d *Detector) recalibrationRatio(ratios []float64) float64 {
	med := stats.Quantile(ratios, 0.5)
	q := 0.25
	if med < 1 {
		q = 0.75
	}
	r := stats.Quantile(ratios, q)
	if math.IsNaN(r) || r <= 0 {
		return 1
	}
	if r > maxRatio {
		r = maxRatio
	}
	if r < 1.0/maxRatio {
		r = 1.0 / maxRatio
	}
	return r
}
