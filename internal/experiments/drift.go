package experiments

import (
	"fmt"

	"erms/internal/apps"
	"erms/internal/core"
	"erms/internal/drift"
	"erms/internal/parallel"
)

func init() {
	register("figDrift", FigDrift)
}

// driftWindow is one window's outcome for one controller.
type driftWindow struct {
	viol       float64
	containers int
	swaps      int
}

// driftInjectMultiplier is the mid-run service-time shift: the shared
// "profile" microservice's true base latency triples (a dependency upgrade
// gone slow). The simulator sees the new truth immediately; the frozen
// analytic models keep their stale copy. 3x is past what the planner's
// safe-side over-estimation absorbs at the experiment's rates, so the stale
// model visibly violates SLAs.
const driftInjectMultiplier = 3.0

// FigDrift is the online-profiling drift experiment (ROADMAP item 4): the
// Hotel Reservation application runs a steady workload, and a third of the
// way in, the shared "profile" microservice's true service time triples
// behind the models' back. Two identical controllers face the byte-identical
// shift with identical per-window seeds:
//
//   - frozen: the stock controller — models fitted once, never revisited.
//     Its plans keep sizing "profile" for the old capacity, the containers
//     saturate, and the violation probability stays pinned high for the rest
//     of the run;
//   - drift: the same controller with WithDriftDetection. The detector
//     flags the deviation, waits out its hysteresis, re-fits from the live
//     samples, and swaps the model in; the next plan sizes "profile" for
//     the new regime and the violation probability reconverges.
//
// Windows span two whole minutes — live samples are per-minute aggregates
// recorded after warmup, so shorter windows would carry no drift signal at
// all (the frozen and drift controllers would be byte-identical by
// construction, not by merit).
func FigDrift(quick bool) []*Table {
	windows := 9
	baseRate := 14_000.0
	if quick {
		windows = 6
		baseRate = 12_000
	}
	injectAt := windows / 3
	const windowMin, warmupMin = 2.0, 0.5
	simSeed := func(w int) uint64 { return 7700 + 31*uint64(w) }

	driftCfg := drift.Config{Threshold: 0.75, Consecutive: 2}
	runners := []struct {
		name string
		cfg  *drift.Config
	}{
		{"frozen", nil},
		{"drift", &driftCfg},
	}
	// Two independent closed systems: private app copies (each mutates its
	// own profile map at the injection window), private clusters, shared
	// seeds. Fan out per controller; each window loop is stateful.
	series, err := parallel.Map(len(runners), func(i int) ([]driftWindow, error) {
		return runDriftController(runners[i].cfg, windows, injectAt, windowMin, warmupMin, baseRate, simSeed)
	})
	if err != nil {
		panic(err)
	}

	tab := &Table{
		ID:    "figDrift",
		Title: "SLA violation probability around a mid-run 3x service-time shift of shared microservice 'profile'",
		Header: []string{"window", "req/min", "event",
			"frozen viol", "frozen containers", "drift viol", "drift containers", "swaps"},
	}
	for w := 0; w < windows; w++ {
		event := ""
		if w == injectAt {
			event = "profile 3x slower"
		}
		f, d := series[0][w], series[1][w]
		tab.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", baseRate), event,
			f3(f.viol), fmt.Sprintf("%d", f.containers),
			f3(d.viol), fmt.Sprintf("%d", d.containers), fmt.Sprintf("%d", d.swaps))
	}

	// Reconvergence: the first post-injection window from which the
	// violation probability stays below 5% for the rest of the run.
	reconverge := func(s []driftWindow) int {
		for w := injectAt; w < windows; w++ {
			ok := true
			for v := w; v < windows; v++ {
				if s[v].viol > 0.05 {
					ok = false
					break
				}
			}
			if ok {
				return w
			}
		}
		return -1
	}
	for i, r := range runners {
		if rw := reconverge(series[i]); rw < 0 {
			tab.AddNote("%s: never reconverges after the shift (violation stays > 5%%)", r.name)
		} else {
			tab.AddNote("%s: reconverges at window %d (%d windows after the shift)", r.name, rw, rw-injectAt)
		}
	}
	totalSwaps := 0
	for _, d := range series[1] {
		totalSwaps += d.swaps
	}
	tab.AddNote("drift controller swapped %d model(s); the frozen controller plans against the stale model forever", totalSwaps)
	tab.AddNote("expected: both controllers meet SLAs before the shift; after it the frozen controller keeps sizing 'profile' for the old capacity and stays saturated, while the drift loop detects, re-fits, and reconverges within a few windows")
	return []*Table{tab}
}

// runDriftController drives one controller (drift detection optional)
// through the shift schedule on a private cluster and app copy.
func runDriftController(cfg *drift.Config, windows, injectAt int, windowMin, warmupMin, baseRate float64,
	simSeed func(int) uint64) ([]driftWindow, error) {
	app := apps.HotelReservation()
	var opts []core.Option
	if cfg != nil {
		opts = append(opts, core.WithDriftDetection(*cfg))
	}
	rec, err := newLoop(app, 20, windowMin, warmupMin, opts...)
	if err != nil {
		return nil, err
	}

	out := make([]driftWindow, windows)
	for w := 0; w < windows; w++ {
		if w == injectAt {
			p := app.Profiles["profile"]
			p.BaseMs *= driftInjectMultiplier
			app.Profiles["profile"] = p
		}
		rep, err := rec.Step(uniformRates(app, baseRate), simSeed(w))
		if err != nil {
			return nil, fmt.Errorf("drift window %d: %w", w, err)
		}
		out[w] = driftWindow{
			viol:       meanViolation(rep.Violations),
			containers: rep.Containers,
			swaps:      rep.ModelSwaps,
		}
	}
	return out, nil
}
