// Package profiling implements Erms' Offline Profiling module (§2.2, §5.2):
// it fits per-microservice tail latency as a piece-wise linear function of
// the per-container workload whose slope depends on host CPU and memory
// utilization (Eq. 15), and learns the interference-dependent cut-off point
// σ with a decision tree. It also provides the XGBoost-style and neural-
// network baselines of Fig. 10 and an analytic model for experiments too
// large to profile empirically.
package profiling

import (
	"errors"
	"fmt"
	"math"

	"erms/internal/mlearn"
	"erms/internal/sim"
	"erms/internal/stats"
)

// Sample is one profiling observation: the tuple d = (L, γ, C, M) of §5.2.
type Sample struct {
	// Workload is γ: calls per container per minute.
	Workload float64
	// TailMs is the observed tail (P95) microservice latency.
	TailMs float64
	// CPUUtil and MemUtil are host utilizations where the containers ran.
	CPUUtil float64
	MemUtil float64
}

// FromMinuteSamples converts the simulator's per-minute aggregates into
// profiling samples grouped by microservice.
func FromMinuteSamples(in []sim.MinuteSample) map[string][]Sample {
	out := make(map[string][]Sample)
	for _, m := range in {
		if m.Calls == 0 || m.TailMs <= 0 {
			continue
		}
		out[m.Microservice] = append(out[m.Microservice], Sample{
			Workload: m.PerContainerCalls,
			TailMs:   m.TailMs,
			CPUUtil:  m.CPUUtil,
			MemUtil:  m.MemUtil,
		})
	}
	return out
}

// Model predicts microservice tail latency from per-container workload and
// host interference, and exposes the linearization the scaling models
// consume: L = a·γ + b with interval-dependent (a, b) and an
// interference-dependent knee σ.
type Model interface {
	// Knee returns σ, the per-container workload at which the latency curve
	// switches from the low to the high interval, for the given host
	// utilization.
	Knee(cpuUtil, memUtil float64) float64
	// Params returns the slope a and intercept b of the chosen interval at
	// the given host utilization.
	Params(high bool, cpuUtil, memUtil float64) (a, b float64)
	// Predict evaluates the full piece-wise model.
	Predict(workload, cpuUtil, memUtil float64) float64
}

// Interval holds one segment of Eq. 15: L = (α·C + β·M + c)·γ + b.
type Interval struct {
	AlphaCPU float64 // α: CPU-utilization coefficient of the slope
	BetaMem  float64 // β: memory-utilization coefficient of the slope
	C        float64 // c: interference-independent slope term
	B        float64 // b: intercept
}

// Slope returns a = α·C + β·M + c for the given utilizations, floored at a
// tiny positive value so downstream closed forms stay well-defined.
func (iv Interval) Slope(cpuUtil, memUtil float64) float64 {
	a := iv.AlphaCPU*cpuUtil + iv.BetaMem*memUtil + iv.C
	if a < 1e-9 {
		a = 1e-9
	}
	return a
}

// Predict evaluates the interval at the given workload and utilizations.
func (iv Interval) Predict(workload, cpuUtil, memUtil float64) float64 {
	return iv.Slope(cpuUtil, memUtil)*workload + iv.B
}

// Fitted is the empirically fitted piece-wise model of one microservice.
type Fitted struct {
	Microservice string
	Low, High    Interval
	// kneeTree maps (C, M) to σ; kneeDefault covers unseen regions.
	kneeTree    *mlearn.Tree
	kneeDefault float64
}

var _ Model = (*Fitted)(nil)

// Knee returns the learned cut-off σ for the given interference.
func (f *Fitted) Knee(cpuUtil, memUtil float64) float64 {
	if f.kneeTree == nil {
		return f.kneeDefault
	}
	k := f.kneeTree.Predict([]float64{cpuUtil, memUtil})
	if k <= 0 {
		return f.kneeDefault
	}
	return k
}

// Params returns (a, b) of the selected interval at the given interference.
func (f *Fitted) Params(high bool, cpuUtil, memUtil float64) (float64, float64) {
	iv := f.Low
	if high {
		iv = f.High
	}
	return iv.Slope(cpuUtil, memUtil), iv.B
}

// Predict evaluates the piece-wise model.
func (f *Fitted) Predict(workload, cpuUtil, memUtil float64) float64 {
	if workload <= f.Knee(cpuUtil, memUtil) {
		return f.Low.Predict(workload, cpuUtil, memUtil)
	}
	return f.High.Predict(workload, cpuUtil, memUtil)
}

// FitConfig tunes the fitting procedure.
type FitConfig struct {
	// GridStep buckets (C, M) for per-bucket knee detection. Default 0.1.
	GridStep float64
	// MinBucket is the minimum samples per interference bucket for knee
	// detection. Default 8.
	MinBucket int
}

// kneeTree bounds the σ decision tree. One knee observation per interference
// bucket is the common case (one σ estimate per profiled level), so leaves of
// size one are legitimate.
var kneeTree = mlearn.TreeConfig{MaxDepth: 3, MinLeaf: 1}

func (c FitConfig) withDefaults() FitConfig {
	if c.GridStep <= 0 {
		c.GridStep = 0.1
	}
	if c.MinBucket <= 0 {
		c.MinBucket = 8
	}
	return c
}

// Fit learns the piece-wise model of Eq. 15 from samples of one
// microservice:
//
//  1. bucket samples by interference level and locate each bucket's knee σ
//     with a segmented regression,
//  2. train a decision tree (C, M) → σ (§5.2 uses exactly this model family
//     for the cut-off), and
//  3. fit each interval's (α, β, c, b) by least squares on the features
//     (C·γ, M·γ, γ), pooling samples across buckets.
func Fit(microservice string, samples []Sample, cfg FitConfig) (*Fitted, error) {
	if len(samples) < 8 {
		return nil, fmt.Errorf("profiling: %s has only %d samples", microservice, len(samples))
	}
	cfg = cfg.withDefaults()

	// 1. Per-bucket knee detection.
	type bucket struct {
		cpu, mem float64
		pts      []Sample
	}
	buckets := make(map[[2]int]*bucket)
	for _, s := range samples {
		k := [2]int{int(s.CPUUtil / cfg.GridStep), int(s.MemUtil / cfg.GridStep)}
		b, ok := buckets[k]
		if !ok {
			b = &bucket{}
			buckets[k] = b
		}
		b.pts = append(b.pts, s)
		b.cpu += s.CPUUtil
		b.mem += s.MemUtil
	}
	var kneeX [][]float64
	var kneeY []float64
	for _, b := range buckets {
		if len(b.pts) < cfg.MinBucket {
			continue
		}
		xs := make([]float64, len(b.pts))
		ys := make([]float64, len(b.pts))
		for i, s := range b.pts {
			xs[i] = s.Workload
			ys[i] = s.TailMs
		}
		seg, err := stats.FitSegmented(xs, ys, 3)
		if err != nil || math.IsInf(seg.Knee, 1) {
			continue
		}
		n := float64(len(b.pts))
		kneeX = append(kneeX, []float64{b.cpu / n, b.mem / n})
		kneeY = append(kneeY, seg.Knee)
	}
	f := &Fitted{Microservice: microservice}
	if len(kneeY) > 0 {
		f.kneeDefault = stats.Mean(kneeY)
		if len(kneeY) >= 2 {
			if tree, err := mlearn.FitTree(kneeX, kneeY, kneeTree); err == nil {
				f.kneeTree = tree
			}
		}
	} else {
		// No bucket exhibited a knee: treat the whole range as one interval
		// with the knee beyond the observed maximum.
		maxW := 0.0
		for _, s := range samples {
			if s.Workload > maxW {
				maxW = s.Workload
			}
		}
		f.kneeDefault = maxW * 2
	}

	// 2. Split samples by their bucket's knee and fit both intervals.
	var loX, hiX [][]float64
	var loY, hiY []float64
	for _, s := range samples {
		feat := []float64{s.CPUUtil * s.Workload, s.MemUtil * s.Workload, s.Workload}
		if s.Workload <= f.Knee(s.CPUUtil, s.MemUtil) {
			loX = append(loX, feat)
			loY = append(loY, s.TailMs)
		} else {
			hiX = append(hiX, feat)
			hiY = append(hiY, s.TailMs)
		}
	}
	fitIv := func(x [][]float64, y []float64) (Interval, bool) {
		if len(y) < 4 {
			return Interval{}, false
		}
		m, err := stats.FitMulti(x, y)
		if err != nil {
			return Interval{}, false
		}
		return Interval{AlphaCPU: m.Coef[0], BetaMem: m.Coef[1], C: m.Coef[2], B: m.Intercept}, true
	}
	lo, okLo := fitIv(loX, loY)
	hi, okHi := fitIv(hiX, hiY)
	switch {
	case okLo && okHi:
		f.Low, f.High = lo, hi
	case okLo:
		f.Low, f.High = lo, lo
	case okHi:
		f.Low, f.High = hi, hi
	default:
		return nil, fmt.Errorf("profiling: %s: not enough samples in either interval", microservice)
	}
	return f, nil
}

// FitAll fits models for every microservice with enough samples; it returns
// the models plus the list of microservices that could not be fitted.
func FitAll(samples map[string][]Sample, cfg FitConfig) (map[string]Model, []string) {
	models := make(map[string]Model, len(samples))
	var failed []string
	for ms, ss := range samples {
		m, err := Fit(ms, ss, cfg)
		if err != nil {
			failed = append(failed, ms)
			continue
		}
		models[ms] = m
	}
	return models, failed
}

// Evaluate returns the prediction accuracy (1 - relative error, clamped) of
// a model over test samples — the "testing accuracy" of Fig. 10.
func Evaluate(m Model, test []Sample) float64 {
	pred := make([]float64, len(test))
	actual := make([]float64, len(test))
	for i, s := range test {
		pred[i] = m.Predict(s.Workload, s.CPUUtil, s.MemUtil)
		actual[i] = s.TailMs
	}
	return stats.Accuracy(pred, actual)
}

// Split partitions samples into train and test by fraction (time-ordered:
// the first trainFrac goes to training, mirroring the paper's 22h/2h split).
func Split(samples []Sample, trainFrac float64) (train, test []Sample, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, errors.New("profiling: trainFrac must be in (0,1)")
	}
	cut := int(float64(len(samples)) * trainFrac)
	if cut == 0 || cut == len(samples) {
		return nil, nil, errors.New("profiling: split produced an empty side")
	}
	return samples[:cut], samples[cut:], nil
}
