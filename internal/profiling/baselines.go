package profiling

import (
	"fmt"

	"erms/internal/mlearn"
	"erms/internal/stats"
)

// Predictor is the common latency-prediction surface shared by the Fig. 10
// baselines (they predict latency but lack the (a, b) linearization Erms'
// scaling needs, which is the paper's point about black-box models).
type Predictor interface {
	Predict(workload, cpuUtil, memUtil float64) float64
}

func toXY(samples []Sample) ([][]float64, []float64) {
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = []float64{s.Workload, s.CPUUtil, s.MemUtil}
		y[i] = s.TailMs
	}
	return x, y
}

// gbdtPredictor adapts a GBDT to the Predictor interface.
type gbdtPredictor struct{ m *mlearn.GBDT }

func (p gbdtPredictor) Predict(workload, cpu, mem float64) float64 {
	return p.m.Predict([]float64{workload, cpu, mem})
}

// FitGBDTBaseline trains the XGBoost-equivalent baseline of Fig. 10.
func FitGBDTBaseline(samples []Sample) (Predictor, error) {
	if len(samples) < 8 {
		return nil, fmt.Errorf("profiling: gbdt baseline needs more samples, got %d", len(samples))
	}
	x, y := toXY(samples)
	m, err := mlearn.FitGBDT(x, y)
	if err != nil {
		return nil, err
	}
	return gbdtPredictor{m}, nil
}

// nnPredictor adapts an NN to the Predictor interface.
type nnPredictor struct{ m *mlearn.NN }

func (p nnPredictor) Predict(workload, cpu, mem float64) float64 {
	return p.m.Predict([]float64{workload, cpu, mem})
}

// FitNNBaseline trains the three-layer, 64-neuron network baseline of
// Fig. 10.
func FitNNBaseline(samples []Sample, seed uint64) (Predictor, error) {
	if len(samples) < 8 {
		return nil, fmt.Errorf("profiling: nn baseline needs more samples, got %d", len(samples))
	}
	x, y := toXY(samples)
	m, err := mlearn.FitNN(x, y, seed)
	if err != nil {
		return nil, err
	}
	return nnPredictor{m}, nil
}

// EvaluatePredictor mirrors Evaluate for black-box baselines.
func EvaluatePredictor(p Predictor, test []Sample) float64 {
	pred := make([]float64, len(test))
	actual := make([]float64, len(test))
	for i, s := range test {
		pred[i] = p.Predict(s.Workload, s.CPUUtil, s.MemUtil)
		actual[i] = s.TailMs
	}
	return stats.Accuracy(pred, actual)
}
