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
// (hysteresis — a single noisy window never triggers), the detector
// recalibrates the model from the drifted windows' own samples and returns
// it as a Swap.
//
// The recalibration is the only re-fit: the observed/predicted latency
// ratio, taken at a conservative quantile so queueing inflation does not
// masquerade as service-time drift, rescales the frozen model (ScaledModel).
// The rescaled model keeps the frozen model's (C, M) response — its knee and
// slopes still move with host utilization the way §5.2's Eq. 15 says — so the
// planner stays interference-aware for a drifted microservice. What it
// cannot express is a curve whose shape, not only its service time, changed.
// Recalibrations compose — if the first step under-corrects, the
// still-drifting windows trigger another — so the model walks to the new
// regime in bounded, clamped steps.
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
)

// Swap is one model replacement the detector decided on: hand Model to the
// planner under Microservice's key and the drift is absorbed.
type Swap struct {
	Microservice string
	Model        profiling.Model
}

// Stats are the detector's cumulative counters, exported under erms.self.*.
type Stats struct {
	// Windows counts ObserveWindow calls.
	Windows int
	// Detections counts (microservice, window) pairs flagged over threshold.
	Detections int
	// Swaps counts ScaledModel recalibrations handed to the planner.
	Swaps int
	// MaxScore is the worst drift score seen across the run.
	MaxScore float64
}

// msState is the per-microservice streak bookkeeping.
type msState struct {
	streak int
	ratios []float64 // observed/predicted per sample of the current drifted streak
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
		ratios := make([]float64, 0, len(window))
		for _, s := range window {
			if s.TailMs <= 0 {
				continue
			}
			pred := model.Predict(s.Workload, s.CPUUtil, s.MemUtil)
			if !(pred > 0) || math.IsInf(pred, 1) {
				continue
			}
			ratios = append(ratios, s.TailMs/pred)
		}
		if len(ratios) == 0 {
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
			st.ratios = st.ratios[:0]
			continue
		}
		d.stats.Detections++
		st.streak++
		st.ratios = append(st.ratios, ratios...)
		if st.streak < d.cfg.Consecutive {
			continue
		}
		r := recalibrationRatio(st.ratios)
		st.streak = 0
		st.ratios = nil
		if r == 1 {
			continue
		}
		d.stats.Swaps++
		swaps = append(swaps, Swap{Microservice: ms, Model: NewScaledModel(model, r)})
	}
	return swaps
}

// recalibrationRatio derives one clamped service-time rescaling step from
// the streak's observed/predicted ratios. Queueing inflates observations
// well past the service-time shift that caused them, so the estimate is
// taken at a conservative quantile on the drift side: the 25th percentile
// for upward drift (closest to the uncontended samples), the 75th for
// downward. The result is clamped to [1/maxRatio, maxRatio].
func recalibrationRatio(ratios []float64) float64 {
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
