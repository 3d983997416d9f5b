package stats

import (
	"math"
	"testing"
	"time"
)

// TestLogNormalFromMeanCV checks the analytic mean of each parameterization
// and recovers its mean and CV from zigDraws samples. With s² = ln(1+cv²) and
// w = e^{s²}, the log-normal's kurtosis is κ = w⁴ + 2w³ + 3w² − 3, so the
// sample variance has relative standard error √((κ−1)/n), the standard
// deviation half that, and the mean cv/√n. The CV's bound adds the two in
// quadrature, dropping their (positive) covariance, which only widens it.
// Each tolerance is five standard errors.
func TestLogNormalFromMeanCV(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{1, 0.5}, {10, 1.0}, {0.2, 0.25},
	} {
		d := LogNormalFromMeanCV(tc.mean, tc.cv)
		// The log-normal mean is exp(mu + sigma^2/2).
		if mean := math.Exp(d.Mu + d.Sigma*d.Sigma/2); math.Abs(mean-tc.mean)/tc.mean > 1e-9 {
			t.Fatalf("analytic mean %v, want %v", mean, tc.mean)
		}
		r := NewRNG(7)
		var m Moments
		for i := 0; i < zigDraws; i++ {
			m.Add(d.Sample(r))
		}
		n := float64(zigDraws)
		w := 1 + tc.cv*tc.cv
		kappa := w*w*w*w + 2*w*w*w + 3*w*w - 3
		seMean := tc.cv / math.Sqrt(n)
		seSD := math.Sqrt((kappa-1)/n) / 2
		seCV := math.Sqrt(seMean*seMean + seSD*seSD)
		if rel := m.Mean()/tc.mean - 1; math.Abs(rel) > 5*seMean {
			t.Errorf("LogNormalFromMeanCV(%v, %v): sample mean %v, off by %.4f, want within %.4f", tc.mean, tc.cv, m.Mean(), rel, 5*seMean)
		}
		if rel := m.StdDev()/m.Mean()/tc.cv - 1; math.Abs(rel) > 5*seCV {
			t.Errorf("LogNormalFromMeanCV(%v, %v): sample CV %v, off by %.4f, want within %.4f", tc.mean, tc.cv, m.StdDev()/m.Mean(), rel, 5*seCV)
		}
	}
}

func TestLogNormalFromMeanCVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive mean")
		}
	}()
	LogNormalFromMeanCV(0, 1)
}

func TestPoissonSmallMean(t *testing.T) {
	r := NewRNG(11)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Add(float64(Poisson(r, 4.2)))
	}
	if math.Abs(m.Mean()-4.2) > 0.1 {
		t.Fatalf("Poisson(4.2) mean %v", m.Mean())
	}
	// Poisson variance equals the mean.
	if math.Abs(m.Variance()-4.2) > 0.2 {
		t.Fatalf("Poisson(4.2) variance %v", m.Variance())
	}
}

func TestPoissonLargeMean(t *testing.T) {
	r := NewRNG(13)
	var m Moments
	for i := 0; i < 50000; i++ {
		n := Poisson(r, 1000)
		if n < 0 {
			t.Fatal("negative Poisson count")
		}
		m.Add(float64(n))
	}
	if math.Abs(m.Mean()-1000)/1000 > 0.01 {
		t.Fatalf("Poisson(1000) mean %v", m.Mean())
	}
}

func TestPoissonZero(t *testing.T) {
	r := NewRNG(17)
	if Poisson(r, 0) != 0 || Poisson(r, -5) != 0 {
		t.Fatal("Poisson with non-positive mean should be 0")
	}
}

// TestPoissonNaNMeanReturns: a NaN mean used to fall through to Knuth's
// loop, where no product compares <= exp(-NaN), and never return. Like every
// mean that is not positive it now draws nothing and returns 0. The calls run
// on a goroutine so that a regression fails the test instead of hanging it.
func TestPoissonNaNMeanReturns(t *testing.T) {
	for _, mean := range []float64{math.NaN(), -math.NaN(), math.Inf(-1), 0, -5} {
		r := NewRNG(19)
		want := *r
		done := make(chan int, 1)
		go func() { done <- Poisson(r, mean) }()
		select {
		case n := <-done:
			if n != 0 {
				t.Errorf("Poisson(%v) = %d, want 0", mean, n)
			}
			if *r != want {
				t.Errorf("Poisson(%v) drew from the RNG", mean)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Poisson(%v) has not returned after 5 s", mean)
		}
	}
}

func TestDistStrings(t *testing.T) {
	if got := (LogNormal{0, 1}).String(); got != "LogNormal(mu=0, sigma=1)" {
		t.Fatalf("String() = %q", got)
	}
}
