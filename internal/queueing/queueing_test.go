package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

// mm1 is an M/M/1 queue: the one-server case of M/M/c.
func mm1(lambda, mu float64) MMC { return MMC{Lambda: lambda, Mu: mu, Servers: 1} }

// MeanWait returns E[W] = C(c, a) / (c·μ − λ), the closed form the tests
// hold the simulator and the wait quantiles to.
func (q MMC) MeanWait() (float64, error) {
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	return pc / (float64(q.Servers)*q.Mu - q.Lambda), nil
}

func TestMM1KnownValues(t *testing.T) {
	q := mm1(0.5, 1) // rho = 0.5
	w, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("E[W] = %v, want 1", w)
	}
	r := w + 1/q.Mu
	if math.Abs(r-2) > 1e-12 {
		t.Fatalf("E[T] = %v, want 2", r)
	}
	// Little's law: N = lambda * T = rho / (1 - rho).
	if n := q.Lambda * r; math.Abs(n-1) > 1e-12 {
		t.Fatalf("E[N] = %v, want 1", n)
	}
}

func TestMM1Unstable(t *testing.T) {
	if _, err := mm1(1, 1).MeanWait(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
}

func TestMM1ResponseQuantile(t *testing.T) {
	// The M/M/1 wait is 0 with probability 1-rho and Exp(mu-lambda)
	// otherwise: P(W > t) = rho·exp(-(mu-lambda)t).
	q := mm1(0.5, 1)
	p90, err := q.WaitQuantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(0.5/0.1) / 0.5; math.Abs(p90-want) > 1e-12 {
		t.Fatalf("p90 wait = %v, want %v", p90, want)
	}
	if med, _ := q.WaitQuantile(0.5); med != 0 {
		t.Fatalf("median wait = %v, want 0", med)
	}
	if _, err := q.WaitQuantile(1.5); err == nil {
		t.Fatal("bad quantile accepted")
	}
}

func TestMMCReducesToMM1(t *testing.T) {
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		q := mm1(rho, 1)
		w, err := q.MeanWait()
		if err != nil {
			t.Fatal(err)
		}
		// M/M/1: E[W] = rho / (mu - lambda).
		if want := rho / (1 - rho); math.Abs(w-want) > 1e-9 {
			t.Fatalf("rho %v: M/M/1 special case: %v vs %v", rho, w, want)
		}
		// For M/M/1 Erlang C equals rho.
		if pc, _ := q.ErlangC(); math.Abs(pc-rho) > 1e-12 {
			t.Fatalf("rho %v: ErlangC = %v, want rho", rho, pc)
		}
	}
}

func TestMMCKnownErlangC(t *testing.T) {
	// Classic table value: c=2, a=1 (rho=0.5): C = 1/3.
	q := MMC{Lambda: 1, Mu: 1, Servers: 2}
	pc, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-1.0/3) > 1e-9 {
		t.Fatalf("ErlangC(2, a=1) = %v, want 1/3", pc)
	}
}

func TestMMCWaitQuantile(t *testing.T) {
	q := MMC{Lambda: 1, Mu: 1, Servers: 2}
	// P(wait) = 1/3, so the 0.5-quantile of the wait is 0.
	z, err := q.WaitQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if z != 0 {
		t.Fatalf("median wait = %v, want 0", z)
	}
	p95, _ := q.WaitQuantile(0.95)
	if p95 <= 0 {
		t.Fatalf("p95 wait = %v", p95)
	}
}

func TestMMCErrors(t *testing.T) {
	if _, err := (MMC{Lambda: 3, Mu: 1, Servers: 2}).ErlangC(); err != ErrUnstable {
		t.Fatal("unstable accepted")
	}
	if _, err := (MMC{Lambda: 1, Mu: 1, Servers: 0}).ErlangC(); err == nil {
		t.Fatal("zero servers accepted")
	}
}

// sharedVsPartitioned reproduces the §2.3 M/M/1 analysis: given two Poisson
// flows with rates l1, l2 (per ms) served at rate mu per server, it returns
// the mean processing (response) time when both flows share a single
// double-speed server versus when each flow gets its own server.
func sharedVsPartitioned(l1, l2, mu float64) (shared, partitioned float64, err error) {
	response := func(q MMC) (float64, error) {
		w, err := q.MeanWait()
		return w + 1/q.Mu, err
	}
	shared, err = response(mm1(l1+l2, 2*mu))
	if err != nil {
		return 0, 0, err
	}
	t1, err := response(mm1(l1, mu))
	if err != nil {
		return 0, 0, err
	}
	t2, err := response(mm1(l2, mu))
	if err != nil {
		return 0, 0, err
	}
	return shared, (t1*l1 + t2*l2) / (l1 + l2), nil
}

func TestSharedVsPartitionedTheory(t *testing.T) {
	// §2.3: for the MEAN, sharing a double-speed pool always beats
	// partitioning — which is why the paper's observation that sharing costs
	// MORE under SLA-driven scaling is surprising.
	shared, part, err := sharedVsPartitioned(0.3, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shared >= part {
		t.Fatalf("sharing (%v) should beat partitioning (%v) in mean", shared, part)
	}
	f := func(a, b uint8) bool {
		l1 := 0.05 + float64(a%80)/100 // < 0.85
		l2 := 0.05 + float64(b%80)/100
		s, p, err := sharedVsPartitioned(l1, l2, 1)
		if err != nil {
			return true // unstable combos skipped
		}
		return s <= p+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
