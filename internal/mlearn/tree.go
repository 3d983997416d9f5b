// Package mlearn provides the from-scratch machine-learning models Erms
// needs: CART regression trees (used to learn the interference-dependent
// cut-off point σ of the piece-wise latency model, §5.2), gradient-boosted
// trees (the XGBoost stand-in of Fig. 10), and a small feed-forward neural
// network (the NN baseline of Fig. 10). Stdlib only.
package mlearn

import (
	"errors"
	"fmt"
	"sort"
)

// maxDepth limits regression-tree depth (the root is depth 0).
const maxDepth = 3

// TreeConfig bounds regression-tree growth.
type TreeConfig struct {
	// MinLeaf is the minimum samples per leaf. Default 5.
	MinLeaf int
	// MaxThresholds caps candidate split thresholds per feature (quantile
	// subsampling); 0 means all midpoints.
	MaxThresholds int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	return c
}

// Tree is a fitted CART regression tree.
type Tree struct {
	feature   int
	threshold float64
	left      *Tree
	right     *Tree
	value     float64
	leaf      bool
}

// FitTree grows a regression tree on X (rows of features) and y by greedy
// variance reduction.
func FitTree(x [][]float64, y []float64, cfg TreeConfig) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("mlearn: FitTree empty or mismatched input")
	}
	d := len(x[0])
	for _, row := range x {
		if len(row) != d {
			return nil, errors.New("mlearn: FitTree ragged rows")
		}
	}
	cfg = cfg.withDefaults()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return grow(x, y, idx, cfg, 0), nil
}

func mean(y []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func grow(x [][]float64, y []float64, idx []int, cfg TreeConfig, depth int) *Tree {
	if depth >= maxDepth || len(idx) < 2*cfg.MinLeaf {
		return &Tree{leaf: true, value: mean(y, idx)}
	}
	parentSSE := sse(y, idx)
	if parentSSE == 0 {
		return &Tree{leaf: true, value: mean(y, idx)}
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	d := len(x[0])
	for f := 0; f < d; f++ {
		vals := make([]float64, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, x[i][f])
		}
		sort.Float64s(vals)
		var thresholds []float64
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				thresholds = append(thresholds, (vals[i]+vals[i-1])/2)
			}
		}
		if cfg.MaxThresholds > 0 && len(thresholds) > cfg.MaxThresholds {
			sub := make([]float64, cfg.MaxThresholds)
			for k := range sub {
				sub[k] = thresholds[k*len(thresholds)/cfg.MaxThresholds]
			}
			thresholds = sub
		}
		for _, th := range thresholds {
			var li, ri []int
			for _, i := range idx {
				if x[i][f] <= th {
					li = append(li, i)
				} else {
					ri = append(ri, i)
				}
			}
			if len(li) < cfg.MinLeaf || len(ri) < cfg.MinLeaf {
				continue
			}
			gain := parentSSE - sse(y, li) - sse(y, ri)
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, f, th
			}
		}
	}
	if bestFeat < 0 {
		return &Tree{leaf: true, value: mean(y, idx)}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &Tree{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      grow(x, y, li, cfg, depth+1),
		right:     grow(x, y, ri, cfg, depth+1),
	}
}

// Predict evaluates the tree at the feature vector.
func (t *Tree) Predict(x []float64) float64 {
	for !t.leaf {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

// String renders a compact description for debugging.
func (t *Tree) String() string {
	if t.leaf {
		return fmt.Sprintf("leaf(%.3g)", t.value)
	}
	return fmt.Sprintf("(x%d<=%.3g ? %s : %s)", t.feature, t.threshold, t.left, t.right)
}

// The boosted ensemble is gbdtTrees trees, each contribution shrunk by
// gbdtLearningRate.
const (
	gbdtTrees        = 80
	gbdtLearningRate = 0.1
)

// gbdtTree bounds the base learners. Quantile subsampling of the split
// thresholds keeps boosting fast on large profiles without hurting split
// quality materially.
var gbdtTree = TreeConfig{MaxThresholds: 32}

// GBDT is a fitted gradient-boosted tree ensemble (squared loss).
type GBDT struct {
	base  float64
	rate  float64
	trees []*Tree
}

// FitGBDT fits the ensemble by steepest-descent boosting on squared loss:
// each tree regresses the current residuals.
func FitGBDT(x [][]float64, y []float64) (*GBDT, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("mlearn: FitGBDT empty or mismatched input")
	}
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))
	model := &GBDT{base: base, rate: gbdtLearningRate}
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	resid := make([]float64, len(y))
	for k := 0; k < gbdtTrees; k++ {
		for i := range y {
			resid[i] = y[i] - pred[i]
		}
		t, err := FitTree(x, resid, gbdtTree)
		if err != nil {
			return nil, err
		}
		model.trees = append(model.trees, t)
		for i := range pred {
			pred[i] += gbdtLearningRate * t.Predict(x[i])
		}
	}
	return model, nil
}

// Predict evaluates the ensemble.
func (g *GBDT) Predict(x []float64) float64 {
	out := g.base
	for _, t := range g.trees {
		out += g.rate * t.Predict(x)
	}
	return out
}
