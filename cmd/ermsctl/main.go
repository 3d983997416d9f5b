// Command ermsctl drives an Erms system from the command line: pick a
// benchmark application, set per-service request rates, compute the scaling
// plan, and optionally validate it with simulated traffic.
//
// Examples:
//
//	ermsctl -app hotel -rate 40000 -plan
//	ermsctl -app social -rates compose-post=10000,home-timeline=60000,user-timeline=40000 -evaluate
//	ermsctl -app alibaba -services 100 -rate 5000 -plan -scheme fcfs
//	ermsctl -app hotel -rate 30000 -profile -evaluate
//	ermsctl -app hotel -rate 12000 -chaos -chaos-windows 8
//	ermsctl run -spec examples/quickstart/quickstart.yaml -timeline timeline.csv
//
// With -spec, the whole scenario — application, cohorts, SLO tiers,
// population-dynamics phases, resilience — comes from the declarative
// workload spec, and scenario-shaping flags (-app, -rate, -resilience, ...)
// are rejected as contradictory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"erms"
	"erms/internal/chaos"
	"erms/internal/obs"
	"erms/internal/parallel"
	"erms/internal/persist"
	"erms/internal/sortutil"
	"erms/internal/spec"
)

func main() {
	var (
		appName  = flag.String("app", "hotel", "application: hotel, social, media, alibaba")
		services = flag.Int("services", 100, "service count for -app alibaba")
		rate     = flag.Float64("rate", 20_000, "uniform per-service request rate (req/min)")
		rateList = flag.String("rates", "", "per-service rates: svc=rate,svc=rate (overrides -rate)")
		scheme   = flag.String("scheme", "priority", "shared-microservice scheme: priority, fcfs, nonshared")
		hosts    = flag.Int("hosts", 20, "cluster hosts (32 cores / 64GB each)")
		doPlan   = flag.Bool("plan", false, "print the scaling plan")
		doEval   = flag.Bool("evaluate", false, "simulate the deployment and report SLA outcomes")
		doProf   = flag.Bool("profile", false, "fit models by offline profiling sweeps instead of analytic models")
		duration = flag.Float64("minutes", 2, "simulated minutes for -evaluate")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		dotSvc   = flag.String("dot", "", "print the dependency graph of a service in Graphviz format and exit")
		savePlan = flag.String("save-plan", "", "write the computed plan as JSON to this file")
		saveApp  = flag.String("save-app", "", "write the application topology as JSON to this file and exit")
		loadApp  = flag.String("load-app", "", "load the application from a JSON file (overrides -app)")
		workers  = flag.Int("parallel", 0, "worker-pool size for independent simulation runs (0 = GOMAXPROCS); output is identical at any value")

		simMode  = flag.String("sim-mode", "exact", "evaluation engine fidelity: exact (discrete events everywhere) or hybrid (analytic fluid model for far-from-knee microservices)")
		simParts = flag.Int("sim-partitions", 0, "concurrent sharing-group partition tasks for -evaluate (0 = one per group; with -sim-mode exact any value is byte-identical to the serial engine)")

		planWin   = flag.Int("plan-windows", 0, "drive N planning windows, perturbing a fraction of services each window, and report per-window latency and skip/replan counters")
		dirtyFrac = flag.Float64("dirty-frac", 0.1, "with -plan-windows: fraction of services whose rates change every window")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (view with `go tool pprof`)")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")

		doChaos    = flag.Bool("chaos", false, "run the control loop under a seeded fault schedule and print per-window reports")
		chaosWin   = flag.Int("chaos-windows", 8, "scaling windows for -chaos (each -minutes long)")
		chaosNaive = flag.Bool("chaos-naive", false, "disable resilience for -chaos: no retry, no degraded mode, no replacement scheduling")

		driftOn   = flag.Bool("drift", false, "with -chaos: enable the online profiling drift loop (detect model drift from live samples, re-fit, hot-swap); windows must span >= 2 minutes to carry samples")
		driftThr  = flag.Float64("drift-threshold", 0.75, "with -drift: relative deviation of observed from predicted tail latency that counts as drift")
		driftCons = flag.Int("drift-consecutive", 2, "with -drift: consecutive drifted windows before a re-fit fires (hysteresis)")

		obsAddr = flag.String("obs-addr", "", "serve control-plane self-observability on this address (Prometheus /metrics, JSON /spans, /debug/pprof); the process stays up after the run until interrupted")

		resOn      = flag.Bool("resilience", false, "enable the data-plane fault model in evaluations: deadline propagation, timeouts, crash failure semantics")
		resTimeout = flag.Float64("timeout-sla", 3, "with -resilience: request deadline as a multiple of the service SLA (0 = no deadline)")
		resAttempt = flag.Float64("attempt-timeout", 25, "with -resilience: per-attempt timeout in ms (0 = bound attempts by the request deadline only)")
		resRetries = flag.Int("retries", 1, "with -resilience: max attempts per call edge (1 = no retries)")
		resBudget  = flag.Float64("retry-budget", 0.1, "with -resilience: retry tokens earned per success (0 = unbounded retries, the naive storm)")
		resBreaker = flag.Float64("breaker", 0.5, "with -resilience: circuit-breaker failure-rate threshold per (service, microservice) (0 = no breakers)")
		resShed    = flag.Bool("shed", false, "with -resilience: shed calls at enqueue when the estimated wait overruns the deadline")

		specPath = flag.String("spec", "", "run a declarative workload spec (YAML or JSON); replaces all scenario-shaping flags")
		timeline = flag.String("timeline", "timeline.csv", "with -spec: write the per-minute per-tier timeline CSV to this file (empty = skip)")
	)
	// Accept an optional leading "run" subcommand (ermsctl run -spec ...);
	// flag parsing stops at the first non-flag argument, so strip it first.
	// "operate" dispatches to the long-running operator daemon, which has its
	// own flag set.
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "operate" {
		cmdOperate(args[1:])
		return
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	flag.CommandLine.Parse(args)
	parallel.SetWorkers(*workers)

	if *specPath != "" {
		rejectSpecConflicts(*specPath)
	} else if flagWasSet("timeline") {
		log.Fatal("-timeline only applies to spec runs; add -spec <file> or drop -timeline")
	}

	// Profile defers are registered first so they run last: with -obs-addr,
	// holdForScrape blocks until interrupt, and the profiles are written
	// after it returns (the CPU profile then also covers the held period,
	// which samples approximately nothing while idle).
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", path)
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		path := *cpuProf
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", path)
		}()
	}

	if *specPath != "" {
		runSpec(*specPath, *timeline, *obsAddr)
		return
	}

	var app *erms.App
	switch *appName {
	case "hotel":
		app = erms.HotelReservation()
	case "social":
		app = erms.SocialNetwork()
	case "media":
		app = erms.MediaService()
	case "alibaba":
		app = erms.Alibaba(erms.AlibabaConfig{Seed: *seed, Services: *services})
	default:
		log.Fatalf("unknown app %q", *appName)
	}
	if *loadApp != "" {
		f, err := os.Open(*loadApp)
		if err != nil {
			log.Fatal(err)
		}
		app, err = persist.LoadApp(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	if *saveApp != "" {
		f, err := os.Create(*saveApp)
		if err != nil {
			log.Fatal(err)
		}
		if err := persist.SaveApp(f, app); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *saveApp)
		return
	}

	if *dotSvc != "" {
		g := app.Graph(*dotSvc)
		if g == nil {
			log.Fatalf("no service %q in %s (services: %v)", *dotSvc, app.Name, app.Services())
		}
		fmt.Print(g.DOT())
		return
	}

	rates := make(map[string]float64)
	for _, svc := range app.Services() {
		rates[svc] = *rate
	}
	if err := parseRates(*rateList, rates); err != nil {
		log.Fatal(err)
	}

	var sch erms.Scheme
	switch *scheme {
	case "priority":
		sch = erms.SchemePriority
	case "fcfs":
		sch = erms.SchemeFCFS
	case "nonshared":
		sch = erms.SchemeNonShared
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}

	var res *erms.Resilience
	if *resOn {
		res = &erms.Resilience{
			TimeoutSLAMultiple: *resTimeout,
			AttemptTimeoutMs:   *resAttempt,
			MaxAttempts:        *resRetries,
			RetryBackoffMs:     2,
			RetryJitter:        0.2,
			RetryBudget:        *resBudget,
			BreakerFailureRate: *resBreaker,
			Shed:               *resShed,
		}
	}
	if (*driftOn || flagWasSet("drift-threshold") || flagWasSet("drift-consecutive")) && !*doChaos {
		log.Fatal("-drift* flags only apply to -chaos runs; add -chaos or drop them")
	}
	sysOpts := []erms.Option{erms.WithHosts(*hosts), erms.WithScheme(sch),
		erms.WithResilience(res)}
	if *driftOn {
		sysOpts = append(sysOpts, erms.WithDriftDetection(erms.DriftConfig{
			Threshold:   *driftThr,
			Consecutive: *driftCons,
		}))
	}
	sys, err := erms.NewSystem(app, sysOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if *obsAddr != "" {
		rec := sys.EnableObservability()
		// Bind synchronously: a busy port or bad address must fail the
		// process now with a nonzero exit, not die silently inside a
		// goroutine while the run proceeds unobserved.
		srv := obs.NewServer(*obsAddr, rec.Handler())
		if err := srv.Listen(); err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := srv.Serve(); err != nil {
				log.Fatalf("obs endpoint: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "self-observability on http://%s (/metrics, /spans, /debug/pprof)\n", srv.Addr())
		defer holdForScrape(srv)
	}
	if *doProf {
		fmt.Fprintln(os.Stderr, "profiling offline (simulated sweeps)...")
		failed, err := sys.ProfileOffline(erms.OfflineConfig{
			Rates: []float64{5_000, 15_000, 30_000, 45_000, 55_000},
		})
		if err != nil {
			log.Fatal(err)
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "warning: analytic fallback for %v\n", failed)
			sys.UseAnalyticModels()
			if _, err := sys.ProfileOffline(erms.OfflineConfig{
				Rates: []float64{5_000, 15_000, 30_000, 45_000, 55_000},
			}); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		sys.UseAnalyticModels()
	}

	if *doChaos {
		runChaosLoop(sys, app, rates, *chaosWin, *duration, *seed, *chaosNaive)
		return
	}

	if *planWin > 0 {
		runPlanWindows(sys, app, rates, *planWin, *dirtyFrac)
		return
	}

	plan, err := sys.Plan(rates)
	if err != nil {
		log.Fatal(err)
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			log.Fatal(err)
		}
		if err := persist.SavePlan(f, plan); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *savePlan)
	}

	if *doPlan || !*doEval {
		fmt.Printf("plan for %s (%s scheme): %d containers\n\n", app.Name, sch, plan.TotalContainers())
		var mss []string
		for ms := range plan.Containers {
			mss = append(mss, ms)
		}
		sort.Strings(mss)
		var perSvc []string
		for svc := range plan.PerService {
			perSvc = append(perSvc, svc)
		}
		sort.Strings(perSvc)
		fmt.Printf("%-28s %10s %14s\n", "microservice", "containers", "target(ms)")
		for _, ms := range mss {
			// A shared microservice has one target per service; show the
			// tightest (it's what the deployment must honor). Sorted
			// iteration keeps ties deterministic.
			target := ""
			best := 0.0
			for _, svc := range perSvc {
				if t, ok := plan.PerService[svc].Targets[ms]; ok && (target == "" || t < best) {
					best = t
					target = fmt.Sprintf("%.2f", t)
				}
			}
			fmt.Printf("%-28s %10d %14s\n", ms, plan.Containers[ms], target)
		}
		if len(plan.Ranks) > 0 {
			fmt.Println("\npriorities at shared microservices (0 = highest):")
			var shared []string
			for ms := range plan.Ranks {
				shared = append(shared, ms)
			}
			sort.Strings(shared)
			for _, ms := range shared {
				fmt.Printf("  %-24s %v\n", ms, plan.Ranks[ms])
			}
		}
	}

	if *doEval {
		var evalOpts erms.EvalOpts
		switch *simMode {
		case "exact":
			evalOpts.SimMode = erms.SimExact
		case "hybrid":
			evalOpts.SimMode = erms.SimHybrid
		default:
			log.Fatalf("-sim-mode %q: want exact or hybrid", *simMode)
		}
		evalOpts.SimPartitions = *simParts
		res, err := sys.EvaluateWithOpts(plan, rates, *duration, 0.3, *seed, evalOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsimulated %.1f minutes (%s engine):\n", *duration, *simMode)
		var svcs []string
		for svc := range res.TailLatency {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
		for _, svc := range svcs {
			line := fmt.Sprintf("  %-20s SLA %6.1fms  P95 %8.2fms  violations %5.2f%%",
				svc, app.SLAs[svc].Threshold, res.TailLatency[svc], 100*res.Violations[svc])
			if *resOn {
				line += fmt.Sprintf("  errors %5.2f%%", 100*res.ErrorRate[svc])
			}
			fmt.Println(line)
		}
		if *resOn {
			fmt.Printf("  goodput %.0f req/min (requests within SLA)\n", res.Goodput)
		}
	}
}

// holdForScrape keeps the process alive after the run so the -obs-addr
// endpoints remain scrapeable; Ctrl-C (or SIGTERM) drains in-flight scrapes
// and exits.
func holdForScrape(srv *obs.Server) {
	fmt.Fprintf(os.Stderr, "run complete; holding http://%s open for scraping (Ctrl-C to exit)\n", srv.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("obs shutdown: %v", err)
	}
}

// runPlanWindows drives the controller's incremental planner window by
// window: every window the first ⌈dirty-frac · services⌉ services get a
// fresh rate multiplier, and the loop reports how long the replan took and
// how many services were skipped versus replanned (the dirty closure is the
// perturbed services' sharing groups).
func runPlanWindows(sys *erms.System, app *erms.App, rates map[string]float64,
	windows int, frac float64) {
	ctrl := sys.Controller()
	svcs := app.Services()
	sort.Strings(svcs)
	n := int(frac*float64(len(svcs)) + 0.999999)
	if n > len(svcs) {
		n = len(svcs)
	}
	victims := svcs[:n]
	base := make(map[string]float64, len(rates))
	for svc, r := range rates {
		base[svc] = r
	}

	// Cold window compiles the templates and seeds the fingerprints; it is
	// reported separately because steady state is the interesting number.
	start := time.Now()
	if _, err := sys.Plan(rates); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan loop: %s, %d services, %d dirty per window (%.0f%%), shards=%d\n\n",
		app.Name, len(svcs), n, 100*frac, ctrl.Planner.Stats().Shards)
	fmt.Printf("%-6s %12s %9s %10s %12s\n", "window", "latency", "skipped", "replanned", "containers")
	fmt.Printf("%-6s %12s %9s %10s\n", "cold", time.Since(start).Round(time.Microsecond), "-", "-")
	prev := ctrl.Planner.Stats()
	for w := 0; w < windows; w++ {
		mult := 1 + 0.01*float64(w+1)
		for _, svc := range victims {
			rates[svc] = base[svc] * mult
		}
		start = time.Now()
		plan, err := sys.Plan(rates)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		st := ctrl.Planner.Stats()
		fmt.Printf("%-6d %12s %9d %10d %12d\n", w,
			elapsed.Round(time.Microsecond),
			st.SkippedServices-prev.SkippedServices,
			st.DirtyServices-prev.DirtyServices,
			plan.TotalContainers())
		prev = st
	}
}

// runChaosLoop generates the standard fault schedule for the cluster, binds
// it to the orchestrator, and drives the reconciler window by window,
// printing what was injected and how the loop coped.
func runChaosLoop(sys *erms.System, app *erms.App, rates map[string]float64,
	windows int, windowMin float64, seed uint64, naive bool) {
	ctrl := sys.Controller()
	cfg := chaos.Default(seed, windows, windowMin, ctrl.Orch.Cluster().NumHosts(), app.Microservices())
	sched, err := chaos.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	inj := chaos.NewInjector(sched, ctrl.Orch)
	inj.SetRecorder(ctrl.Obs)

	rec := sys.NewReconciler()
	rec.WindowMin = windowMin
	if windowMin < 1 {
		rec.WarmupMin = windowMin / 4
	}
	rec.Chaos = inj
	mode := "resilient"
	if naive {
		rec.Naive()
		mode = "naive"
	}

	fmt.Printf("chaos run: %s, %d windows x %.1f min, seed %d, %s loop\n",
		app.Name, windows, windowMin, seed, mode)
	fmt.Printf("schedule: %d faults\n\n", len(sched.Faults))
	fmt.Printf("%-4s %-28s %10s %8s %7s %7s  %s\n",
		"win", "faults", "containers", "repaired", "retries", "viol", "flags")
	for w := 0; w < windows; w++ {
		if _, err := inj.BeginWindow(w); err != nil {
			log.Fatal(err)
		}
		rep, err := rec.Step(rates, seed+uint64(w)*101+7)
		if err != nil {
			fmt.Printf("%-4d %-28s control loop aborted: %v\n", w, sched.Summary(w), err)
			if naive {
				fmt.Println("\nnaive loop froze; rerun without -chaos-naive to see the resilient loop recover")
				return
			}
			log.Fatal(err)
		}
		if err := inj.EndWindow(w); err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		for _, v := range rep.Violations {
			if v > worst {
				worst = v
			}
		}
		var flags []string
		if rep.Degraded {
			flags = append(flags, "degraded")
		}
		if rep.Outage {
			flags = append(flags, "outage")
		}
		if rep.ObsGap {
			flags = append(flags, "obs-gap")
		}
		if rep.ModelSwaps > 0 {
			flags = append(flags, fmt.Sprintf("swapped:%d", rep.ModelSwaps))
		}
		fmt.Printf("%-4d %-28s %10d %8d %7d %7.3f  %s\n",
			w, sched.Summary(w), rep.Containers, rep.Repaired, rep.Retries, worst,
			strings.Join(flags, ","))
	}
	if ctrl.Drift != nil {
		st := ctrl.Drift.Stats()
		fmt.Printf("\ndrift loop: %d windows scored, %d detections, %d swaps (%d segmented re-fits, %d recalibrations), max score %.2f\n",
			st.Windows, st.Detections, st.Swaps, st.Refits, st.Fallbacks, st.MaxScore)
	}
}

// parseRates overlays a -rates list ("svc=rate,svc=rate") onto rates, whose
// keys are the application's services. A name that is not one of them is an
// error: dropping it would leave the misspelled service on its default rate.
func parseRates(list string, rates map[string]float64) error {
	if list == "" {
		return nil
	}
	for _, kv := range strings.Split(list, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -rates entry %q", kv)
		}
		if _, ok := rates[parts[0]]; !ok {
			return fmt.Errorf("-rates names unknown service %q (services: %s)", parts[0], strings.Join(sortutil.Keys(rates), ", "))
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return fmt.Errorf("bad rate in %q: %v", kv, err)
		}
		rates[parts[0]] = v
	}
	return nil
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// specConflicts are the scenario-shaping flags a workload spec replaces:
// setting any of them together with -spec is contradictory and rejected.
var specConflicts = []string{
	"app", "services", "rate", "rates", "scheme", "hosts", "seed", "minutes",
	"plan", "evaluate", "profile", "dot", "save-plan", "save-app", "load-app",
	"chaos", "chaos-windows", "chaos-naive", "plan-windows", "dirty-frac",
	"drift", "drift-threshold", "drift-consecutive",
	"resilience", "timeout-sla", "attempt-timeout", "retries", "retry-budget",
	"breaker", "shed",
	"sim-mode", "sim-partitions",
}

// rejectSpecConflicts fails fast when -spec is combined with flags the spec
// itself defines.
func rejectSpecConflicts(specFile string) {
	conflicting := make(map[string]bool, len(specConflicts))
	for _, name := range specConflicts {
		conflicting[name] = true
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if conflicting[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		sort.Strings(bad)
		log.Fatalf("-spec %s defines the whole scenario (app, workload, run, resilience); "+
			"drop the contradictory flag(s): %s", specFile, strings.Join(bad, ", "))
	}
}

// runSpec parses, compiles, and runs a declarative workload spec, printing
// the per-tier outcome summary and writing the timeline CSV artifact.
func runSpec(path, timelinePath, obsAddr string) {
	s, err := spec.ParseFile(path)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		log.Fatal(err)
	}
	var rec *obs.Recorder
	var srv *obs.Server
	if obsAddr != "" {
		rec = obs.New(nil)
		srv = obs.NewServer(obsAddr, rec.Handler())
		// Synchronous bind: fail the run now with a nonzero exit instead of
		// letting the listener goroutine die unnoticed.
		if err := srv.Listen(); err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := srv.Serve(); err != nil {
				log.Fatalf("obs endpoint: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "self-observability on http://%s (/metrics, /spans, /debug/pprof)\n", srv.Addr())
	}
	start := time.Now()
	res, err := sc.Run(rec)
	if err != nil {
		log.Fatal(err)
	}
	res.Report(os.Stdout)
	fmt.Printf("run took %.2fs wall\n", time.Since(start).Seconds())
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteTimelineCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", timelinePath)
	}
	if srv != nil {
		holdForScrape(srv)
	}
}
