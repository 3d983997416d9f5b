package experiments

import (
	"fmt"
	"strings"

	"erms/examples/specs"
	"erms/internal/core"
	"erms/internal/operator"
	"erms/internal/spec"
)

func init() {
	register("figOperator", FigOperator)
}

// operatorScenarioResult is the structured outcome FigOperator renders and
// the CI gates assert on.
type operatorScenarioResult struct {
	history   []operator.WindowStatus
	gens      []operator.Generation
	mismatch  int // fleet windows differing from the good-push-only control
	compared  int
	badRolled bool
	goodGen   operator.Generation
	badGen    operator.Generation
}

// operatorWindows is the experiment horizon: enough for the good push to
// commit (canary 2 + soak 1), the bad push to roll back, and a steady tail.
const operatorWindows = 10

// runOperatorScenario drives two operators through the same window schedule:
// the subject gets the good push at window 2 and the bad push at window 6;
// the control gets only the good push. Every fleet window from the bad push
// onward must be byte-identical between the two — the sandboxed canary's
// zero-fleet-regression contract.
func runOperatorScenario() (*operatorScenarioResult, error) {
	cfg := operator.Config{
		CanaryFraction:   0.25,
		CanaryWindows:    2,
		SoakWindows:      1,
		MaxViolationRate: 0.10,
		MaxErrorRate:     0.10,
	}
	build := func() (*operator.Operator, error) {
		s, err := spec.Parse(specs.Read("operator-base.yaml"))
		if err != nil {
			return nil, err
		}
		sc, err := s.Compile()
		if err != nil {
			return nil, err
		}
		return operator.New(sc, cfg, nil)
	}
	subject, err := build()
	if err != nil {
		return nil, err
	}
	control, err := build()
	if err != nil {
		return nil, err
	}

	res := &operatorScenarioResult{}
	const goodAt, badAt = 2, 6
	var subjectFleet, controlFleet []*core.WindowReport
	for w := 0; w < operatorWindows; w++ {
		if w == goodAt {
			gGood, err := subject.Push(specs.Read("operator-good.yaml"), "experiment")
			if err != nil {
				return nil, fmt.Errorf("good push: %w", err)
			}
			res.goodGen = *gGood
			if _, err := control.Push(specs.Read("operator-good.yaml"), "experiment"); err != nil {
				return nil, fmt.Errorf("control push: %w", err)
			}
		}
		if w == badAt {
			gBad, err := subject.Push(specs.Read("operator-bad.yaml"), "experiment")
			if err != nil {
				return nil, fmt.Errorf("bad push: %w", err)
			}
			res.badGen = *gBad
		}
		st, err := subject.Step()
		if err != nil {
			return nil, fmt.Errorf("subject window %d: %w", w, err)
		}
		cst, err := control.Step()
		if err != nil {
			return nil, fmt.Errorf("control window %d: %w", w, err)
		}
		res.history = append(res.history, *st)
		subjectFleet = append(subjectFleet, st.FleetReport())
		controlFleet = append(controlFleet, cst.FleetReport())
	}

	// Zero-fleet-regression check: from the bad push's window to the end,
	// the subject's fleet trajectory must be byte-identical to the control's
	// (which never saw the bad candidate).
	for w := badAt; w < operatorWindows; w++ {
		a, b := *subjectFleet[w], *controlFleet[w]
		a.PhaseMs, b.PhaseMs = nil, nil
		res.compared++
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			res.mismatch++
		}
	}

	gens := subject.Generations()
	res.gens = gens
	for _, g := range gens {
		if g.Name == "operator-bad" && g.Status == operator.StatusRolledBack {
			res.badRolled = true
		}
		if g.Name == "operator-good" {
			res.goodGen = g
		}
		if g.Name == "operator-bad" {
			res.badGen = g
		}
	}
	return res, nil
}

// FigOperator exercises the long-running operator mode end to end on the
// shipped example specs: a benign SLA push canaries, promotes, soaks, and
// commits; a ~4x-tightened SLA push breaches in the sandboxed canary and
// auto-rolls back, leaving every fleet window byte-identical to a
// trajectory that never saw it.
func FigOperator(quick bool) []*Table {
	_ = quick // one horizon: the scenario is already the quick shape
	res, err := runOperatorScenario()
	if err != nil {
		panic(err)
	}

	timeline := &Table{
		ID:     "figOperator",
		Title:  "rollout timeline (examples/specs/operator-*.yaml)",
		Header: []string{"window", "phase", "gen", "cand", "canary viol", "fleet viol", "containers", "event"},
	}
	for _, st := range res.history {
		cand := "-"
		if st.Candidate != 0 {
			cand = fmt.Sprintf("g%d", st.Candidate)
		}
		timeline.AddRow(fmt.Sprint(st.Window), st.Phase, fmt.Sprintf("g%d", st.Committed), cand,
			pct(st.CanaryViolationMax), pct(st.FleetViolationMax),
			fmt.Sprint(st.FleetContainers), st.Event)
	}

	gens := &Table{
		ID:     "figOperator",
		Title:  "generations",
		Header: []string{"gen", "name", "status", "pushed", "decided", "reason"},
	}
	for _, g := range res.gens {
		reason := g.Reason
		if len(reason) > 60 {
			reason = reason[:57] + "..."
		}
		gens.AddRow(fmt.Sprintf("g%d", g.ID), g.Name, string(g.Status),
			fmt.Sprintf("w%d", g.PushedWindow), fmt.Sprintf("w%d", g.DecidedWindow), reason)
	}

	goodOK := "holds"
	if res.goodGen.Status != operator.StatusCommitted {
		goodOK = "VIOLATED"
	}
	badOK := "holds"
	if !res.badRolled {
		badOK = "VIOLATED"
	}
	isoOK := "holds"
	if res.mismatch != 0 {
		isoOK = "VIOLATED"
	}
	gens.AddNote("promotion contract %s: the benign push committed (decided w%d, %d windows after push)",
		goodOK, res.goodGen.DecidedWindow, res.goodGen.DecidedWindow-res.goodGen.PushedWindow)
	gens.AddNote("rollback contract %s: the bad push ended %s (%s)",
		badOK, res.badGen.Status, firstLine(res.badGen.Reason))
	gens.AddNote("isolation contract %s: %d/%d fleet windows from the bad push onward byte-identical to a trajectory that never saw it",
		isoOK, res.compared-res.mismatch, res.compared)
	return []*Table{timeline, gens}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
