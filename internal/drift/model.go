package drift

import (
	"math"

	"erms/internal/profiling"
	"erms/internal/stats"
)

// minSlope mirrors profiling.Interval's slope floor so the planner's Eq. 5
// closed forms stay well-defined against a refitted flat segment.
const minSlope = 1e-9

// SegmentModel is a live-refitted piece-wise linear latency model: the
// stats.SegmentedFit family the offline profiler uses, but fitted from one
// interference regime (a drifted streak's windows), so it is deliberately
// utilization-independent — Knee and Params ignore (C, M). If the
// interference landscape later shifts too, the detector simply re-fits
// again; the model never pretends to a (C, M) response it was not trained
// on.
//
// A SegmentModel is immutable after construction. Swapping one into the
// planner's model map is the template cache's invalidation event: the
// parameter probe hash no longer matches, the stale template recompiles,
// everything else stays hot.
type SegmentModel struct {
	Fit  stats.SegmentedFit
	knee float64
}

var _ profiling.Model = (*SegmentModel)(nil)

// NewSegmentModel wraps a segmented fit as a planner-consumable model.
// maxWorkload is the largest workload observed during the fit; a fit that
// found no interior knee (Knee=+Inf) gets its knee pinned to twice that, the
// same "knee beyond the observed range" convention profiling.Fit uses.
func NewSegmentModel(fit stats.SegmentedFit, maxWorkload float64) *SegmentModel {
	knee := fit.Knee
	if math.IsInf(knee, 1) || knee <= 0 {
		knee = 2 * maxWorkload
		if knee <= 0 {
			knee = 1
		}
	}
	return &SegmentModel{Fit: fit, knee: knee}
}

// Knee returns the refitted cut-off, independent of interference.
func (m *SegmentModel) Knee(cpuUtil, memUtil float64) float64 { return m.knee }

// Params returns the selected segment's slope and intercept. Slopes are
// floored at minSlope so the planner's closed forms stay well-conditioned.
// The low intercept is the attainable latency floor and is floored at 0; the
// high intercept is left as fitted — a steeper post-knee segment extrapolates
// to a negative intercept by construction (continuity at the knee), the
// planner's Eq. 5 slack term only grows from it, and the domain cap keeps
// per-container workloads where the line is positive and valid.
func (m *SegmentModel) Params(high bool, cpuUtil, memUtil float64) (float64, float64) {
	f := m.Fit.Low
	if high {
		f = m.Fit.High
	}
	a, b := f.Slope, f.Intercept
	if a < minSlope {
		a = minSlope
	}
	if !high && b < 0 {
		b = 0
	}
	return a, b
}

// Predict evaluates the piece-wise linearization.
func (m *SegmentModel) Predict(workload, cpuUtil, memUtil float64) float64 {
	a, b := m.Params(workload > m.knee, cpuUtil, memUtil)
	return a*workload + b
}

// ScaledModel is the incremental recalibration: the wrapped model with its
// service time rescaled by Ratio. The transform follows from the physical
// model the paper's curves linearize — a service time S' = r·S shifts the
// idle tail floor to r·b, halves... more precisely divides per-container
// capacity (and with it the knee) by r, and steepens each secant slope by
// r² (r from the latency rise, r again from the compressed workload axis):
//
//	Knee'  = Knee / r
//	slope' = r² · slope
//	b'     = r · b
//
// Ratio > 1 models a slowdown (dependency upgrade doubled the base
// latency); Ratio < 1 a speedup. ScaledModels compose: if one step
// under-corrects, the next drifted streak wraps again, and the estimates
// multiply toward the true shift.
type ScaledModel struct {
	Base  profiling.Model
	Ratio float64
}

var _ profiling.Model = (*ScaledModel)(nil)

// NewScaledModel wraps base with a service-time ratio (must be positive).
func NewScaledModel(base profiling.Model, ratio float64) *ScaledModel {
	// Collapse nested recalibrations so repeated drift episodes don't grow
	// an unbounded wrapper chain (and so Predict stays one indirection).
	if sm, ok := base.(*ScaledModel); ok {
		return &ScaledModel{Base: sm.Base, Ratio: sm.Ratio * ratio}
	}
	return &ScaledModel{Base: base, Ratio: ratio}
}

// Knee returns the capacity-compressed cut-off.
func (m *ScaledModel) Knee(cpuUtil, memUtil float64) float64 {
	k := m.Base.Knee(cpuUtil, memUtil) / m.Ratio
	if !(k > minSlope) {
		k = minSlope
	}
	return k
}

// Params returns the rescaled secant of the chosen interval.
func (m *ScaledModel) Params(high bool, cpuUtil, memUtil float64) (float64, float64) {
	a, b := m.Base.Params(high, cpuUtil, memUtil)
	return a * m.Ratio * m.Ratio, b * m.Ratio
}

// Predict evaluates the rescaled piece-wise model.
func (m *ScaledModel) Predict(workload, cpuUtil, memUtil float64) float64 {
	a, b := m.Params(workload > m.Knee(cpuUtil, memUtil), cpuUtil, memUtil)
	return a*workload + b
}
