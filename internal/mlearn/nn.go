package mlearn

import (
	"errors"

	"erms/internal/stats"
)

// The network baseline is the paper's Fig. 10 comparison: a three-layer
// network with 64 hidden neurons, trained by minibatch SGD.
const (
	nnHidden       = 64
	nnEpochs       = 120
	nnLearningRate = 0.01
	nnBatch        = 32
)

// NN is a fitted input→hidden(ReLU)→output regression network with input and
// target standardization baked into Predict.
type NN struct {
	inDim  int
	hidden int

	w1 []float64 // hidden x in
	b1 []float64 // hidden
	w2 []float64 // hidden
	b2 float64

	xMean, xStd []float64
	yMean, yStd float64
}

// FitNN trains the network with minibatch SGD on squared loss; seed controls
// weight initialization and shuffling.
func FitNN(x [][]float64, y []float64, seed uint64) (*NN, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("mlearn: FitNN empty or mismatched input")
	}
	d := len(x[0])
	for _, row := range x {
		if len(row) != d {
			return nil, errors.New("mlearn: FitNN ragged rows")
		}
	}
	n := len(x)
	net := &NN{
		inDim:  d,
		hidden: nnHidden,
		w1:     make([]float64, nnHidden*d),
		b1:     make([]float64, nnHidden),
		w2:     make([]float64, nnHidden),
		xMean:  make([]float64, d),
		xStd:   make([]float64, d),
	}

	// Standardize features and target; remember parameters for Predict.
	for f := 0; f < d; f++ {
		var m stats.Moments
		for i := 0; i < n; i++ {
			m.Add(x[i][f])
		}
		net.xMean[f] = m.Mean()
		net.xStd[f] = m.StdDev()
		if net.xStd[f] == 0 {
			net.xStd[f] = 1
		}
	}
	var my stats.Moments
	for _, v := range y {
		my.Add(v)
	}
	net.yMean, net.yStd = my.Mean(), my.StdDev()
	if net.yStd == 0 {
		net.yStd = 1
	}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for f := 0; f < d; f++ {
			row[f] = (x[i][f] - net.xMean[f]) / net.xStd[f]
		}
		xs[i] = row
		ys[i] = (y[i] - net.yMean) / net.yStd
	}

	r := stats.NewRNG(seed + 1)
	for i := range net.w1 {
		net.w1[i] = r.NormFloat64() * 0.3
	}
	for i := range net.w2 {
		net.w2[i] = r.NormFloat64() * 0.3
	}

	hid := make([]float64, nnHidden)
	gw1 := make([]float64, len(net.w1))
	gb1 := make([]float64, nnHidden)
	gw2 := make([]float64, nnHidden)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < nnEpochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += nnBatch {
			end := start + nnBatch
			if end > n {
				end = n
			}
			for i := range gw1 {
				gw1[i] = 0
			}
			for i := 0; i < nnHidden; i++ {
				gb1[i], gw2[i] = 0, 0
			}
			gb2 := 0.0
			for _, idx := range order[start:end] {
				in := xs[idx]
				// Forward.
				out := net.b2
				for h := 0; h < nnHidden; h++ {
					z := net.b1[h]
					base := h * d
					for f := 0; f < d; f++ {
						z += net.w1[base+f] * in[f]
					}
					if z < 0 {
						z = 0
					}
					hid[h] = z
					out += net.w2[h] * z
				}
				// Backward (squared loss).
				diff := out - ys[idx]
				gb2 += diff
				for h := 0; h < nnHidden; h++ {
					gw2[h] += diff * hid[h]
					if hid[h] > 0 {
						gh := diff * net.w2[h]
						gb1[h] += gh
						base := h * d
						for f := 0; f < d; f++ {
							gw1[base+f] += gh * in[f]
						}
					}
				}
			}
			scale := nnLearningRate / float64(end-start)
			for i := range net.w1 {
				net.w1[i] -= scale * gw1[i]
			}
			for h := 0; h < nnHidden; h++ {
				net.b1[h] -= scale * gb1[h]
				net.w2[h] -= scale * gw2[h]
			}
			net.b2 -= scale * gb2
		}
	}
	return net, nil
}

// Predict evaluates the network at the (unstandardized) feature vector.
func (n *NN) Predict(x []float64) float64 {
	out := n.b2
	for h := 0; h < n.hidden; h++ {
		z := n.b1[h]
		base := h * n.inDim
		for f := 0; f < n.inDim; f++ {
			z += n.w1[base+f] * (x[f] - n.xMean[f]) / n.xStd[f]
		}
		if z > 0 {
			out += n.w2[h] * z
		}
	}
	return out*n.yStd + n.yMean
}
