package drift

import "erms/internal/profiling"

// minSlope floors a recalibrated knee so the planner's Eq. 5 closed forms
// stay well-defined however far a ratio compresses capacity.
const minSlope = 1e-9

// ScaledModel is the drift loop's recalibration: the wrapped model with its
// service time rescaled by Ratio. The transform follows from the physical
// model the paper's curves linearize — a service time S' = r·S shifts the
// idle tail floor to r·b, divides per-container capacity (and with it the
// knee) by r, and steepens each secant slope by r² (r from the latency
// rise, r again from the compressed workload axis):
//
//	Knee'  = Knee / r
//	slope' = r² · slope
//	b'     = r · b
//
// Every term is taken at the caller's (C, M), so the wrapped model's
// interference response survives: the knee still moves with utilization,
// by the same factor 1/r everywhere. Ratio > 1 models a slowdown (a
// dependency upgrade doubled the base latency); Ratio < 1 a speedup.
// ScaledModels compose: if one step under-corrects, the next drifted
// streak wraps again, and the estimates multiply toward the true shift.
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
