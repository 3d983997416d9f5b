package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrSingular is returned when a least-squares system has no unique solution.
var ErrSingular = errors.New("stats: singular least-squares system")

// LineFit is the result of a simple linear regression y = Slope*x + Intercept.
type LineFit struct {
	Slope     float64
	Intercept float64
}

// Predict evaluates the fitted line at x.
func (f LineFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// FitLine computes the ordinary least-squares line through (xs, ys). It
// returns ErrSingular when all xs are identical (vertical data) and requires
// at least two points.
func FitLine(xs, ys []float64) (LineFit, error) {
	if len(xs) != len(ys) {
		return LineFit{}, errors.New("stats: FitLine length mismatch")
	}
	if len(xs) < 2 {
		return LineFit{}, errors.New("stats: FitLine needs at least 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LineFit{}, ErrSingular
	}
	slope := sxy / sxx
	return LineFit{Slope: slope, Intercept: my - slope*mx}, nil
}

// MultiFit is the result of a multiple linear regression
// y = Coef[0]*x0 + Coef[1]*x1 + ... + Intercept.
type MultiFit struct {
	Coef      []float64
	Intercept float64
}

// Predict evaluates the fitted hyperplane at the feature vector x.
func (f MultiFit) Predict(x []float64) float64 {
	y := f.Intercept
	for i, c := range f.Coef {
		y += c * x[i]
	}
	return y
}

// FitMulti computes an ordinary least-squares fit of ys against the rows of
// xs (each row is one observation's feature vector). A small ridge term
// stabilizes nearly collinear designs, which arise when interference levels
// barely vary within a profiling window.
func FitMulti(xs [][]float64, ys []float64) (MultiFit, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return MultiFit{}, errors.New("stats: FitMulti empty or mismatched input")
	}
	d := len(xs[0])
	for _, row := range xs {
		if len(row) != d {
			return MultiFit{}, errors.New("stats: FitMulti ragged feature rows")
		}
	}
	// Augmented design: features plus intercept column.
	k := d + 1
	// Normal equations A w = b with A = X'X, b = X'y.
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
	}
	b := make([]float64, k)
	for r := 0; r < n; r++ {
		for i := 0; i < k; i++ {
			xi := 1.0
			if i < d {
				xi = xs[r][i]
			}
			b[i] += xi * ys[r]
			for j := i; j < k; j++ {
				xj := 1.0
				if j < d {
					xj = xs[r][j]
				}
				a[i][j] += xi * xj
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	// Ridge regularization scaled to the diagonal magnitude. The intercept is
	// excluded so constant offsets are not shrunk.
	const ridge = 1e-9
	for i := 0; i < d; i++ {
		a[i][i] += ridge * (1 + a[i][i])
	}
	w, err := solveLinear(a, b)
	if err != nil {
		return MultiFit{}, err
	}
	return MultiFit{Coef: w[:d], Intercept: w[d]}, nil
}

// solveLinear solves a dense symmetric system via Gaussian elimination with
// partial pivoting. The matrix is modified in place.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		x[col], x[pivot] = x[pivot], x[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for row := n - 1; row >= 0; row-- {
		sum := x[row]
		for c := row + 1; c < n; c++ {
			sum -= a[row][c] * x[c]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// SegmentedFit is a two-piece linear model of y as a function of x with a
// breakpoint at Knee: the Low fit applies for x <= Knee and the High fit for
// x > Knee. This is the shape the paper observes for microservice tail
// latency as a function of per-container workload (Fig. 3).
type SegmentedFit struct {
	Knee float64
	Low  LineFit
	High LineFit
	SSE  float64
}

// Predict evaluates the segmented model at x.
func (f SegmentedFit) Predict(x float64) float64 {
	if x <= f.Knee {
		return f.Low.Predict(x)
	}
	return f.High.Predict(x)
}

// FitSegmented searches candidate breakpoints (each interior unique x value)
// and returns the two-piece linear fit minimizing total squared error. Each
// segment must contain at least minSeg points (minSeg < 2 is treated as 2).
// If no valid breakpoint exists, the single best line is returned with
// Knee = +Inf. When no line fits at all — degenerate input such as all x
// values equal, where FitLine is singular on the whole range and on every
// candidate split — FitSegmented returns ErrSingular rather than a silent
// zero-value model (whose Predict would be identically 0).
func FitSegmented(xs, ys []float64, minSeg int) (SegmentedFit, error) {
	if len(xs) != len(ys) {
		return SegmentedFit{}, errors.New("stats: FitSegmented length mismatch")
	}
	if len(xs) < 2 {
		return SegmentedFit{}, errors.New("stats: FitSegmented needs at least 2 points")
	}
	if minSeg < 2 {
		minSeg = 2
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	sx := make([]float64, len(pts))
	sy := make([]float64, len(pts))
	for i, p := range pts {
		sx[i] = p.x
		sy[i] = p.y
	}

	sse := func(f LineFit, xs, ys []float64) float64 {
		var s float64
		for i := range xs {
			r := ys[i] - f.Predict(xs[i])
			s += r * r
		}
		return s
	}

	best := SegmentedFit{Knee: math.Inf(1), SSE: math.Inf(1)}
	if single, err := FitLine(sx, sy); err == nil {
		best.Low = single
		best.High = single
		best.SSE = sse(single, sx, sy)
	}

	for cut := minSeg; cut <= len(sx)-minSeg; cut++ {
		// Only split between distinct x values so both segments span a range.
		if sx[cut-1] == sx[cut] {
			continue
		}
		lo, errLo := FitLine(sx[:cut], sy[:cut])
		hi, errHi := FitLine(sx[cut:], sy[cut:])
		if errLo != nil || errHi != nil {
			continue
		}
		total := sse(lo, sx[:cut], sy[:cut]) + sse(hi, sx[cut:], sy[cut:])
		if total < best.SSE {
			best = SegmentedFit{
				Knee: (sx[cut-1] + sx[cut]) / 2,
				Low:  lo,
				High: hi,
				SSE:  total,
			}
		}
	}
	if math.IsInf(best.SSE, 1) {
		return SegmentedFit{}, ErrSingular
	}
	return best, nil
}

// Accuracy returns the mean prediction accuracy 1 - |pred-actual|/actual,
// clamped to [0, 1], averaged over all pairs with actual > 0. This matches
// the paper's "testing accuracy" notion for latency profiling (Fig. 10).
// When no pair has actual > 0 (empty input, or every actual nonpositive)
// there is no defined relative error and the result is NaN — callers that
// feed live window data must treat NaN as "no signal", not as 0% accurate.
func Accuracy(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) || len(predicted) == 0 {
		return math.NaN()
	}
	var sum float64
	var n int
	for i := range predicted {
		if actual[i] <= 0 {
			continue
		}
		acc := 1 - math.Abs(predicted[i]-actual[i])/actual[i]
		if acc < 0 {
			acc = 0
		}
		sum += acc
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
