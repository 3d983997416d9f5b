package chaos

import (
	"fmt"
	"sort"

	"erms/internal/kube"
	"erms/internal/obs"
	"erms/internal/sim"
	"erms/internal/workload"
)

// ErrInjected is the sentinel wrapped by every injected control-plane fault.
var ErrInjected = fmt.Errorf("chaos: injected control-plane fault")

// Injector enacts a Schedule against a kube orchestrator, window by window,
// and implements the control loop's ChaosHook so the same schedule drives
// substrate faults (host deaths, crashes, spikes) and control-plane faults
// (op errors, observability gaps).
//
// The host-failure timeline models detection lag: a host scheduled to fail
// in window w loses its capacity mid-window inside the simulation
// (WindowFailures), but the control plane only learns of the dead node at
// the next BeginWindow, where FailNode evicts the lost containers and marks
// the node down. RecoverNode follows DownWindows windows later.
//
// The per-window protocol is:
//
//	inj.BeginWindow(w)   // detect last window's host deaths, recoveries, spikes
//	rec.Step(rates, ...) // the control loop (repairs, plans, applies, measures)
//	inj.EndWindow(w)     // lift this window's interference spikes
//
// Window wraps a step in that bracket; drivers use it rather than spelling
// the three calls out.
type Injector struct {
	sched *Schedule
	orch  *kube.Orchestrator

	failAt    map[int][]int // window -> host IDs the control plane detects as dead
	recoverAt map[int][]int // window -> host IDs that come back

	// saved holds pre-spike background levels for the current window.
	saved map[int]workload.Interference

	// rec, when set, counts every enacted fault under erms.self.chaos_* so
	// the control plane can report the chaos it actually survived (nil-safe:
	// a nil recorder is a no-op).
	rec *obs.Recorder
}

// SetRecorder attaches the self-observability recorder (nil detaches).
func (inj *Injector) SetRecorder(r *obs.Recorder) { inj.rec = r }

// NewInjector binds a schedule to an orchestrator.
func NewInjector(s *Schedule, orch *kube.Orchestrator) *Injector {
	inj := &Injector{
		sched:     s,
		orch:      orch,
		failAt:    make(map[int][]int),
		recoverAt: make(map[int][]int),
		saved:     make(map[int]workload.Interference),
	}
	for _, f := range s.Faults {
		if f.Kind != KindHostFail {
			continue
		}
		inj.failAt[f.Window+1] = append(inj.failAt[f.Window+1], f.Host)
		inj.recoverAt[f.Window+1+f.DownWindows] = append(inj.recoverAt[f.Window+1+f.DownWindows], f.Host)
	}
	return inj
}

// WindowEvents summarizes what BeginWindow enacted.
type WindowEvents struct {
	Recovered []int // hosts brought back up
	Failed    []int // hosts detected dead (containers evicted)
	Spiked    []int // hosts with an interference spike this window
}

// BeginWindow enacts the control-plane-visible faults for window w: node
// recoveries due this window, detection of hosts that died during window
// w-1, and this window's interference spikes. Call before the control
// loop's Step.
func (inj *Injector) BeginWindow(w int) (WindowEvents, error) {
	var ev WindowEvents
	for _, h := range sortedInts(inj.recoverAt[w]) {
		if err := inj.orch.RecoverNode(h); err != nil {
			return ev, fmt.Errorf("chaos: recovering host %d: %w", h, err)
		}
		ev.Recovered = append(ev.Recovered, h)
	}
	for _, h := range sortedInts(inj.failAt[w]) {
		if err := inj.orch.FailNode(h); err != nil {
			return ev, fmt.Errorf("chaos: failing host %d: %w", h, err)
		}
		ev.Failed = append(ev.Failed, h)
	}
	cl := inj.orch.Cluster()
	for _, f := range inj.sched.ByWindow(w) {
		if f.Kind != KindLatencySpike {
			continue
		}
		h := cl.Host(f.Host)
		if h == nil || h.Down() {
			continue
		}
		if _, dup := inj.saved[f.Host]; !dup {
			inj.saved[f.Host] = h.Background()
		}
		if err := cl.SetBackground(f.Host, h.Background().Add(f.Severity)); err != nil {
			return ev, err
		}
		ev.Spiked = append(ev.Spiked, f.Host)
	}
	ev.Spiked = sortedInts(ev.Spiked)
	inj.rec.Add(obs.CtrChaosHostsRecovered, float64(len(ev.Recovered)))
	inj.rec.Add(obs.CtrChaosHostsFailed, float64(len(ev.Failed)))
	inj.rec.Add(obs.CtrChaosSpikes, float64(len(ev.Spiked)))
	return ev, nil
}

// EndWindow lifts the interference spikes applied in BeginWindow. Call after
// the control loop's Step.
func (inj *Injector) EndWindow(w int) error {
	cl := inj.orch.Cluster()
	for _, h := range sortedInts(keysOf(inj.saved)) {
		if err := cl.SetBackground(h, inj.saved[h]); err != nil {
			return err
		}
	}
	inj.saved = make(map[int]workload.Interference)
	return nil
}

// Window runs one control window inside the injector's bracket: BeginWindow,
// step (the control loop's Step for window w), EndWindow. The first error
// ends the window — a failed step leaves its spikes in place, as the run is
// over. A nil injector just runs step, so fault-free drivers share the call.
func (inj *Injector) Window(w int, step func() error) error {
	if inj == nil {
		return step()
	}
	if _, err := inj.BeginWindow(w); err != nil {
		return err
	}
	if err := step(); err != nil {
		return err
	}
	return inj.EndWindow(w)
}

// OpError implements ChaosHook: a scheduled op fault fails the first Count
// attempts of the named operation in its window.
func (inj *Injector) OpError(window int, op string, attempt int) error {
	for _, f := range inj.sched.ByWindow(window) {
		if f.Kind == KindOpFault && f.Op == op && attempt < f.Count {
			inj.rec.Inc(obs.CtrChaosOpFaults)
			return fmt.Errorf("%w: %s attempt %d of window %d", ErrInjected, op, attempt, window)
		}
	}
	return nil
}

// WindowFailures implements ChaosHook: the in-simulation outages for window
// w. Container crashes become per-container failures; a host scheduled to
// die this window becomes a host-scoped failure at its mid-window instant
// (the control plane reacts only at the next BeginWindow — detection lag).
func (inj *Injector) WindowFailures(window int) []sim.Failure {
	wm := inj.sched.Cfg.WindowMin
	var out []sim.Failure
	for _, f := range inj.sched.ByWindow(window) {
		switch f.Kind {
		case KindContainerCrash:
			// The schedule draws an abstract index; wrap it onto the live
			// replica set so a crash always lands regardless of deployment
			// size (a zero-replica microservice has nothing to crash).
			idx := f.Index
			if n := inj.orch.Cluster().CountFor(f.Microservice); n > 0 {
				idx = f.Index % n
			}
			inj.rec.Inc(obs.CtrChaosCrashes)
			out = append(out, sim.Failure{
				Microservice: f.Microservice,
				Index:        idx,
				AtMin:        f.AtFrac * wm,
				RecoverMin:   f.RecoverFrac * wm,
			})
		case KindHostFail:
			out = append(out, sim.Failure{
				Host:  f.Host,
				AtMin: f.AtFrac * wm,
			})
		}
	}
	return out
}

// ObservabilityGap implements ChaosHook.
func (inj *Injector) ObservabilityGap(window int) bool {
	for _, f := range inj.sched.ByWindow(window) {
		if f.Kind == KindObsGap {
			inj.rec.Inc(obs.CtrChaosObsGaps)
			return true
		}
	}
	return false
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func keysOf(m map[int]workload.Interference) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
