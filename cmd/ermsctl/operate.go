package main

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"erms/internal/obs"
	"erms/internal/operator"
)

// cmdOperate runs the long-running operator daemon: the spec file becomes
// the declared state (committed generation 1), and every subsequent push —
// a scripted -push entry or a POST /spec on the admin API — moves through
// the staged rollout state machine (canary → promote → soak → commit, with
// automatic rollback on any guardrail breach). With -windows 0 the daemon
// runs until interrupted, pacing simulated windows by -pace.
func cmdOperate(args []string) {
	fs, start := scenarioFlags("operate", "bootstrap spec file (required); becomes committed generation 1")
	windows := fs.Int("windows", 0, "operator windows to run, 0 = run until interrupted (paced by -pace)")
	pace := fs.Duration("pace", 2*time.Second, "wall-clock delay between windows when -windows is 0")
	canary := fs.Float64("canary", 0.25, "canary fraction: the slice of services, traffic, and hosts the rollout sandbox gets")
	canaryWin := fs.Int("canary-windows", 3, "consecutive clean canary windows that promote a candidate")
	soakWin := fs.Int("soak-windows", 2, "clean post-promotion windows that commit a candidate")
	maxViol := fs.Float64("max-violation", 0.05, "guardrail: max per-window SLA-violation rate of the worst service")
	maxErr := fs.Float64("max-errors", 0.05, "guardrail: max per-window error rate of the worst service")
	chaosWin := fs.Int("chaos-windows", 0, "size of the fault schedule when the spec has a chaos block (0 = the spec's own horizon)")
	obsAddr := fs.String("obs-addr", "", "serve self-observability plus the operator admin API (GET /status, POST /spec, GET /explain/{service}) on this address")
	pushList := fs.String("push", "", "scripted pushes: file@window[,file@window...] — each file is pushed before the given window runs")
	fs.Parse(args)
	sc, stop := start()
	defer stop()
	pushes, err := parsePushSchedule(*pushList)
	if err != nil {
		log.Fatal(err)
	}

	rec := obs.New(nil)
	op, err := operator.New(sc, operator.Config{
		CanaryFraction:   *canary,
		CanaryWindows:    *canaryWin,
		SoakWindows:      *soakWin,
		MaxViolationRate: *maxViol,
		MaxErrorRate:     *maxErr,
		ChaosWindows:     *chaosWin,
	}, rec)
	if err != nil {
		log.Fatal(err)
	}

	var srv *obs.Server
	if *obsAddr != "" {
		srv = serve(*obsAddr, op.Handler(rec), "operator admin + self-observability",
			"/status, /spec, /explain/{service}, /metrics")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("operating %q: %d services on %d hosts, %g-minute windows\n",
		sc.Spec.Name, len(sc.App.Services()), sc.Hosts, sc.WindowMin)
loop:
	for w := 0; *windows == 0 || w < *windows; w++ {
		for _, p := range pushes[w] {
			data, err := os.ReadFile(p)
			if err != nil {
				log.Fatal(err)
			}
			if gen, err := op.Push(data, "file:"+p); err != nil {
				fmt.Printf("w%03d push %s REJECTED: %v\n", w, p, err)
			} else {
				fmt.Printf("w%03d push %s -> generation %d (%s)\n", w, p, gen.ID, gen.Status)
			}
		}
		st, err := op.Step()
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("w%03d %-9s gen=%d", st.Window, st.Phase, st.Committed)
		if st.Candidate != 0 {
			line += fmt.Sprintf(" cand=%d canary[viol=%.3f err=%.3f]", st.Candidate, st.CanaryViolationMax, st.CanaryErrorMax)
		}
		line += fmt.Sprintf(" fleet[viol=%.3f err=%.3f ctrs=%d]", st.FleetViolationMax, st.FleetErrorMax, st.FleetContainers)
		if st.ModelSwaps > 0 {
			line += fmt.Sprintf(" swaps=%d", st.ModelSwaps)
		}
		if st.Event != "" {
			line += "  <" + st.Event + ">"
		}
		fmt.Println(line)

		if *windows == 0 {
			// Indefinite mode paces on wall time; a signal ends the run.
			select {
			case <-sig:
				fmt.Fprintln(os.Stderr, "interrupted; stopping")
				break loop
			case <-time.After(*pace):
			}
		} else {
			select {
			case <-sig:
				fmt.Fprintln(os.Stderr, "interrupted; stopping")
				break loop
			default:
			}
		}
	}

	fmt.Println("\ngenerations:")
	for _, g := range op.Generations() {
		line := fmt.Sprintf("  g%-3d %-14s %-11s pushed w%d", g.ID, g.Name, g.Status, g.PushedWindow)
		if g.DecidedWindow >= 0 {
			line += fmt.Sprintf(" decided w%d", g.DecidedWindow)
		}
		if g.Reason != "" {
			line += "  (" + g.Reason + ")"
		}
		fmt.Println(line)
	}
	if srv != nil {
		shutdown(srv)
	}
}

// parsePushSchedule parses "-push file@window,file@window" into a
// window-indexed schedule.
func parsePushSchedule(list string) (map[int][]string, error) {
	out := map[int][]string{}
	if list == "" {
		return out, nil
	}
	for _, item := range strings.Split(list, ",") {
		at := strings.LastIndex(item, "@")
		if at <= 0 || at == len(item)-1 {
			return nil, fmt.Errorf("-push %q: want file@window", item)
		}
		w, err := strconv.Atoi(item[at+1:])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-push %q: bad window %q", item, item[at+1:])
		}
		out[w] = append(out[w], item[:at])
	}
	return out, nil
}
