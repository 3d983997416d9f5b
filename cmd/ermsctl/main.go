// Command ermsctl drives an Erms system from the command line. There is one
// rule: flags describe a one-shot -plan / -evaluate of a uniform-rate
// application; anything windowed or fault-modelled — cohorts and SLO tiers,
// population-dynamics phases, data-plane resilience, a chaos fault schedule,
// the drift loop — is a declarative workload spec run with `run -spec` on
// the same control loop the operator daemon (`ermsctl operate`) steps.
//
// Examples:
//
//	ermsctl -app hotel -rate 40000 -plan
//	ermsctl -app social -rates compose-post=10000,home-timeline=60000,user-timeline=40000 -evaluate
//	ermsctl -app alibaba -services 100 -rate 5000 -plan -scheme fcfs
//	ermsctl -app hotel -rate 30000 -profile -evaluate
//	ermsctl run -spec examples/quickstart/quickstart.yaml -timeline timeline.csv
//	ermsctl run -spec examples/specs/chaos.yaml
//
// With -spec the one-shot flags (-app, -rate, -evaluate, ...) are rejected
// as contradictory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
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

		simMode = flag.String("sim-mode", "exact", "evaluation engine fidelity: exact (discrete events everywhere, one serial engine) or hybrid (analytic fluid model for far-from-knee microservices, one partition per sharing group)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (view with `go tool pprof`)")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")

		obsAddr = flag.String("obs-addr", "", "serve control-plane self-observability on this address (Prometheus /metrics, JSON /spans, /debug/pprof); the process stays up after the run until interrupted")

		specPath = flag.String("spec", "", "run a declarative workload spec (YAML or JSON) on the window loop: cohorts, phases, resilience, chaos, drift; replaces the one-shot flags")
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

	sys, err := erms.NewSystem(app, erms.WithHosts(*hosts), erms.WithScheme(sch))
	if err != nil {
		log.Fatal(err)
	}
	if *obsAddr != "" {
		defer holdForScrape(serve(*obsAddr, sys.EnableObservability().Handler(),
			"self-observability", "/metrics, /spans, /debug/pprof"))
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
			fmt.Printf("  %-20s SLA %6.1fms  P95 %8.2fms  violations %5.2f%%\n",
				svc, app.SLAs[svc].Threshold, res.TailLatency[svc], 100*res.Violations[svc])
		}
	}
}

// serve binds addr synchronously — a busy port or a bad address must fail
// the process now with a nonzero exit, not die silently inside a goroutine
// while the run proceeds unobserved — serves h there in the background, and
// announces the endpoints (what they are, their paths) on stderr.
func serve(addr string, h http.Handler, what, paths string) *obs.Server {
	srv := obs.NewServer(addr, h)
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			log.Fatalf("%s endpoint: %v", what, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "%s on http://%s (%s)\n", what, srv.Addr(), paths)
	return srv
}

// holdForScrape keeps the process alive after the run so the -obs-addr
// endpoints remain scrapeable; Ctrl-C (or SIGTERM) drains in-flight scrapes
// and exits.
func holdForScrape(srv *obs.Server) {
	fmt.Fprintf(os.Stderr, "run complete; holding http://%s open for scraping (Ctrl-C to exit)\n", srv.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	shutdown(srv)
}

// shutdown drains the endpoint's in-flight requests (for up to 5 s) and
// closes its listener.
func shutdown(srv *obs.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("endpoint shutdown: %v", err)
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

// specConflicts are the one-shot flags a workload spec replaces: setting
// any of them together with -spec is contradictory and rejected.
var specConflicts = []string{
	"app", "services", "rate", "rates", "scheme", "hosts", "seed", "minutes",
	"plan", "evaluate", "profile", "dot", "save-plan", "save-app", "load-app",
	"sim-mode",
}

// rejectSpecConflicts fails fast when -spec is combined with flags the spec
// itself defines.
func rejectSpecConflicts(specFile string) {
	var bad []string
	for _, name := range specConflicts {
		if flagWasSet(name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		log.Fatalf("-spec %s defines the whole scenario (app, workload, run, resilience, chaos, drift); "+
			"drop the contradictory flag(s): %s", specFile, strings.Join(bad, ", "))
	}
}

// loadScenario parses and compiles the workload spec at path.
func loadScenario(path string) *spec.Scenario {
	s, err := spec.ParseFile(path)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := s.Compile()
	if err != nil {
		log.Fatal(err)
	}
	return sc
}

// runSpec parses, compiles, and runs a declarative workload spec, printing
// the per-tier outcome summary and the per-window control table and writing
// the timeline CSV artifact.
func runSpec(path, timelinePath, obsAddr string) {
	sc := loadScenario(path)
	var rec *obs.Recorder
	var srv *obs.Server
	if obsAddr != "" {
		rec = obs.New(nil)
		srv = serve(obsAddr, rec.Handler(), "self-observability", "/metrics, /spans, /debug/pprof")
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
