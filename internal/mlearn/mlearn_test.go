package mlearn

import (
	"math"
	"testing"

	"erms/internal/stats"
)

// stepData: y = 10 for x0 <= 5, else 50, with mild noise.
func stepData(n int, seed uint64) ([][]float64, []float64) {
	r := stats.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := r.Float64() * 10
		x[i] = []float64{v, r.Float64()} // second feature is noise
		if v <= 5 {
			y[i] = 10 + r.NormFloat64()*0.2
		} else {
			y[i] = 50 + r.NormFloat64()*0.2
		}
	}
	return x, y
}

func TestTreeLearnsStep(t *testing.T) {
	x, y := stepData(500, 1)
	tr, err := FitTree(x, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{2, 0.5}); math.Abs(got-10) > 2 {
		t.Fatalf("low region = %v", got)
	}
	if got := tr.Predict([]float64{8, 0.5}); math.Abs(got-50) > 2 {
		t.Fatalf("high region = %v", got)
	}
	if depth(tr) < 1 {
		t.Fatal("tree did not split")
	}
	if tr.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTreeRespectsDepthAndLeafLimits(t *testing.T) {
	// A smooth nonlinear target rewards every split, so growth stops only at
	// the limits.
	x, y := nonlinearData(200, 2)
	tr, err := FitTree(x, y, TreeConfig{MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	if depth(tr) != maxDepth {
		t.Fatalf("depth = %d, want the cap %d", depth(tr), maxDepth)
	}
	rows := map[*Tree]int{}
	for _, row := range x {
		rows[leafOf(tr, row)]++
	}
	for leaf, n := range rows {
		if n < 10 {
			t.Fatalf("leaf %v holds %d training rows, want >= MinLeaf 10", leaf, n)
		}
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}, {12}}
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 7
	}
	tr, err := FitTree(x, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if depth(tr) != 0 {
		t.Fatal("constant target should be a single leaf")
	}
	if tr.Predict([]float64{100}) != 7 {
		t.Fatalf("predict = %v", tr.Predict([]float64{100}))
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := FitTree([][]float64{{1}, {1, 2}}, []float64{1, 2}, TreeConfig{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestTreeThresholdSubsampling(t *testing.T) {
	x, y := stepData(2000, 3)
	tr, err := FitTree(x, y, TreeConfig{MaxThresholds: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Quantile subsampling must still find the step at ~5.
	if got := tr.Predict([]float64{1, 0}); math.Abs(got-10) > 3 {
		t.Fatalf("subsampled tree low region = %v", got)
	}
}

func nonlinearData(n int, seed uint64) ([][]float64, []float64) {
	r := stats.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := r.Float64()*4, r.Float64()*4
		x[i] = []float64{a, b}
		y[i] = a*a + 3*b + a*b + r.NormFloat64()*0.1
	}
	return x, y
}

func TestGBDTFitsNonlinear(t *testing.T) {
	x, y := nonlinearData(800, 5)
	g, err := FitGBDT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.trees) != gbdtTrees {
		t.Fatalf("trees = %d", len(g.trees))
	}
	tx, ty := nonlinearData(300, 6)
	var pred, actual []float64
	for i := range tx {
		pred = append(pred, g.Predict(tx[i]))
		actual = append(actual, ty[i])
	}
	if acc := stats.Accuracy(pred, actual); acc < 0.9 {
		t.Fatalf("GBDT test accuracy = %v", acc)
	}
}

func TestGBDTBeatsSingleTree(t *testing.T) {
	x, y := nonlinearData(1000, 7)
	tx, ty := nonlinearData(300, 8)
	tr, _ := FitTree(x, y, TreeConfig{})
	g, _ := FitGBDT(x, y)
	var treeSSE, gbdtSSE float64
	for i := range tx {
		d1 := tr.Predict(tx[i]) - ty[i]
		d2 := g.Predict(tx[i]) - ty[i]
		treeSSE += d1 * d1
		gbdtSSE += d2 * d2
	}
	if gbdtSSE >= treeSSE {
		t.Fatalf("boosting did not help: tree %v, gbdt %v", treeSSE, gbdtSSE)
	}
}

func TestGBDTErrors(t *testing.T) {
	if _, err := FitGBDT(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestNNFitsLinear(t *testing.T) {
	r := stats.NewRNG(9)
	n := 800
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := r.Float64()*10, r.Float64()*10
		x[i] = []float64{a, b}
		y[i] = 2*a - b + 5
	}
	net, err := FitNN(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pred, actual []float64
	for i := 0; i < 200; i++ {
		a, b := r.Float64()*10, r.Float64()*10
		pred = append(pred, net.Predict([]float64{a, b}))
		actual = append(actual, 2*a-b+5)
	}
	// Relative error measured on |y| scale to avoid zero-crossing blowups.
	var sse, norm float64
	for i := range pred {
		d := pred[i] - actual[i]
		sse += d * d
		norm += actual[i] * actual[i]
	}
	if sse/norm > 0.01 {
		t.Fatalf("NN relative SSE = %v", sse/norm)
	}
}

func TestNNFitsNonlinear(t *testing.T) {
	x, y := nonlinearData(800, 11)
	net, err := FitNN(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := nonlinearData(300, 12)
	var pred, actual []float64
	for i := range tx {
		pred = append(pred, net.Predict(tx[i]))
		actual = append(actual, ty[i])
	}
	if acc := stats.Accuracy(pred, actual); acc < 0.85 {
		t.Fatalf("NN test accuracy = %v", acc)
	}
}

func TestNNDeterministicGivenSeed(t *testing.T) {
	x, y := nonlinearData(200, 13)
	a, err := FitNN(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := FitNN(x, y, 3)
	probe := []float64{1.5, 2.5}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("NN training not deterministic for fixed seed")
	}
}

func TestNNErrors(t *testing.T) {
	if _, err := FitNN(nil, nil, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := FitNN([][]float64{{1}, {1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged input accepted")
	}
}

// leafOf returns the leaf the feature vector falls into.
func leafOf(t *Tree, x []float64) *Tree {
	for !t.leaf {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t
}

// depth returns the tree depth (0 for a single leaf).
func depth(t *Tree) int {
	if t.leaf {
		return 0
	}
	return 1 + max(depth(t.left), depth(t.right))
}
