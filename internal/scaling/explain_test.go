package scaling

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestExplainRendersMergeTree(t *testing.T) {
	in := fig7Input()
	out, err := Explain(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"service svc", "SLA 100.00ms", "merge tree",
		"SEQ*", "PAR**", "Eq. 7-9", "Eq. 11-12",
		"T ", "Url", "U ", "C ",
		"latency targets", "total containers",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainChainHasNoParallelNodes(t *testing.T) {
	in := chainInput(t, 3, 150)
	out, err := Explain(in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "PAR**") {
		t.Fatalf("chain should have no parallel merges:\n%s", out)
	}
	if !strings.Contains(out, "SEQ*") {
		t.Fatalf("chain should have sequential merges:\n%s", out)
	}
}

// TestExplainMatchesOracleByteForByte: the render walked off the compiled
// template equals the render of the recursive oracle's merge tree, byte for
// byte — errors included — on the random graphs of the bit-identity test, on
// a graph that repeats a microservice, and on a plan that flips an interval.
func TestExplainMatchesOracleByteForByte(t *testing.T) {
	check := func(name string, in Input) (string, error) {
		t.Helper()
		want, wantErr := naiveExplain(in)
		got, gotErr := Explain(in)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("%s: err %v, oracle %v", name, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%s: render diverged\n--- template ---\n%s--- oracle ---\n%s", name, got, want)
		}
		return got, gotErr
	}
	for seed := 1; seed <= 150; seed++ {
		check(fmt.Sprintf("seed %d", seed), randomInput(uint64(seed)))
	}
	tight := randomInput(1)
	tight.SLA.Threshold /= 4 // below the sum of intercepts
	if _, err := check("infeasible", tight); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("quartered SLA: err %v, want infeasible", err)
	}
	check("duplicate", duplicateMSInput())
	if out, _ := check("two-interval", twoIntervalInput()); !strings.Contains(out, "interval=low") {
		t.Fatalf("two-interval render uses no low interval:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	in := fig7Input()
	delete(in.Models, "C")
	if _, err := Explain(in); err == nil {
		t.Fatal("invalid input accepted")
	}
	in2 := fig7Input()
	in2.SLA.Threshold = 0.001 // infeasible
	if _, err := Explain(in2); err == nil {
		t.Fatal("infeasible input accepted")
	}
}
