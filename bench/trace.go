package main

import (
	"encoding/json"
	"os"
	"time"

	"erms/internal/obs"
)

// Span names the harness records itself. The five phase children of
// spanStep carry the obs.Phase* names.
const (
	spanSetup      = "bench.setup"
	spanWindow     = "bench.window"
	spanStep       = "core.step"
	spanChaosBegin = "chaos.begin_window"
	spanChaosEnd   = "chaos.end_window"
	spanAppBuild   = "apps.build"
	spanCoreNew    = "core.new"
	spanModels     = "profiling.analytic_models"
)

// phaseOrder is the order Reconciler.Step runs its phases in.
var phaseOrder = []string{obs.PhaseRepair, obs.PhasePlan, obs.PhaseApply, obs.PhaseRebalance, obs.PhaseEvaluate}

// span is one timed interval, in the form -trace-out writes.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent indexes the enclosing span in the dump, -1 for a root.
	Parent int `json:"parent"`
	// Window is the control window, -1 outside the window loop.
	Window   int    `json:"window"`
	Workload string `json:"workload"`
	// Source is "bench" for a span the harness timed around its own call and
	// "report" for a Step phase whose duration comes from
	// WindowReport.PhaseMs; report spans are laid end to end from their Step
	// span's start in phase order, because the report carries no start times.
	Source string `json:"source"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps the spans of one traced run in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of spans started and not yet ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// spanRef ends the span it was returned for.
type spanRef struct {
	t   *tracer
	idx int
}

func (t *tracer) start(name string, window int) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Window: window, Workload: t.workload, Source: "bench",
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	t.spans[idx].StartNs = int64(time.Since(t.epoch))
	return spanRef{t, idx}
}

// end closes the span and returns its duration in milliseconds.
func (r spanRef) end() float64 {
	if r.t == nil {
		return 0
	}
	r.t.spans[r.idx].EndNs = int64(time.Since(r.t.epoch))
	r.t.open = r.t.open[:len(r.t.open)-1]
	return r.t.spans[r.idx].ms()
}

// addPhases files a window report's phase durations as children of the
// window's Step span.
func (t *tracer) addPhases(window int, phaseMs map[string]float64) {
	if t == nil {
		return
	}
	step := -1
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == spanStep && t.spans[i].Window == window {
			step = i
			break
		}
	}
	if step < 0 {
		return
	}
	at := t.spans[step].StartNs
	for _, name := range phaseOrder {
		ms, ok := phaseMs[name]
		if !ok {
			continue
		}
		end := at + int64(ms*1e6)
		t.spans = append(t.spans, span{
			Name: name, StartNs: at, EndNs: end, Parent: step,
			Window: window, Workload: t.workload, Source: "report",
		})
		at = end
	}
}

// selfTimes returns, per span name, the summed self time in milliseconds of
// the spans under the roots of the given name: a span's duration minus its
// children's.
func (t *tracer) selfTimes(root string) map[string]float64 {
	self := make([]float64, len(t.spans))
	under := make([]bool, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
			under[i] = under[s.Parent]
		} else {
			under[i] = s.Name == root
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		if under[i] {
			out[s.Name] += self[i]
		}
	}
	return out
}

// durations returns the durations in milliseconds of every span of a name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// dump writes the spans as one JSON array.
func (t *tracer) dump(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
