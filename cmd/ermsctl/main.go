// Command ermsctl drives an Erms system from the command line. A scenario —
// the application, client cohorts and SLO tiers, population-dynamics phases,
// data-plane resilience, a chaos fault schedule, the drift loop, the latency
// models the planner starts from — is a declarative workload spec, and
// ermsctl does one of three things with it:
//
//	ermsctl plan -spec F      print the plan the spec's first window applies
//	ermsctl run -spec F       run the spec window by window and report it
//	ermsctl operate -spec F   run the operator daemon bootstrapped from it
//
// All three build the one control loop (spec.Scenario.NewLoop). Examples:
//
//	ermsctl plan -spec examples/quickstart/quickstart.yaml -save-plan plan.json
//	ermsctl plan -spec examples/quickstart/quickstart.yaml -dot search
//	ermsctl run -spec examples/quickstart/quickstart.yaml -timeline timeline.csv
//	ermsctl run -spec examples/specs/chaos.yaml
//	ermsctl operate -spec examples/specs/operator-base.yaml -windows 12
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"erms/internal/multiplex"
	"erms/internal/obs"
	"erms/internal/parallel"
	"erms/internal/persist"
	"erms/internal/sortutil"
	"erms/internal/spec"
)

func main() {
	if len(os.Args) > 1 {
		switch cmd, args := os.Args[1], os.Args[2:]; cmd {
		case "plan":
			cmdPlan(args)
			return
		case "run":
			cmdRun(args)
			return
		case "operate":
			cmdOperate(args)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: ermsctl plan|run|operate -spec <file> [flags]; ermsctl <subcommand> -h lists the flags")
	os.Exit(2)
}

// scenarioFlags returns the flag set of one subcommand with the flags every
// subcommand shares registered on it, and the function that, once the set is
// parsed, sizes the worker pool, starts the requested profiles and loads the
// spec. Deferring the returned stop writes the profiles.
func scenarioFlags(name, specUsage string) (*flag.FlagSet, func() (sc *spec.Scenario, stop func())) {
	fs := flag.NewFlagSet("ermsctl "+name, flag.ExitOnError)
	specPath := fs.String("spec", "", specUsage)
	workers := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS); output is identical at any value")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the whole command to this file (view with `go tool pprof`)")
	memProf := fs.String("memprofile", "", "write a heap profile at exit to this file")
	return fs, func() (*spec.Scenario, func()) {
		parallel.SetWorkers(*workers)
		if *specPath == "" {
			log.Fatalf("ermsctl %s needs -spec <file>", name)
		}
		stop := startProfiles(*cpuProf, *memProf)
		return loadScenario(*specPath), stop
	}
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that stops it and writes a heap profile into memPath; an empty path skips
// that profile. With -obs-addr the command holds its endpoint open before
// stop runs, so the CPU profile also covers the held period (which samples
// approximately nothing while idle).
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", memPath)
		}
	}
}

// cmdPlan prints the plan the spec's first window applies — or, with -dot or
// -save-app, the spec's application instead of a plan.
func cmdPlan(args []string) {
	fs, start := scenarioFlags("plan", "workload spec (YAML or JSON) to plan (required)")
	dotSvc := fs.String("dot", "", "print the dependency graph of this service in Graphviz format instead of the plan")
	savePlan := fs.String("save-plan", "", "also write the plan as JSON to this file")
	saveApp := fs.String("save-app", "", "write the application topology as JSON to this file instead of the plan")
	fs.Parse(args)
	sc, stop := start()
	defer stop()

	app := sc.App
	if *saveApp != "" {
		writeFile(*saveApp, func(w io.Writer) error { return persist.SaveApp(w, app) })
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
	plan, err := sc.FirstPlan()
	if err != nil {
		log.Fatal(err)
	}
	if *savePlan != "" {
		writeFile(*savePlan, func(w io.Writer) error { return persist.SavePlan(w, plan) })
	}
	printPlan(os.Stdout, app.Name, plan)
}

// printPlan renders a plan as a per-microservice table of container counts
// and latency targets, then the priority ranks at shared microservices.
func printPlan(w io.Writer, appName string, plan *multiplex.Plan) {
	fmt.Fprintf(w, "plan for %s (%s scheme): %d containers\n\n", appName, plan.Scheme, plan.TotalContainers())
	perSvc := sortutil.Keys(plan.PerService)
	fmt.Fprintf(w, "%-28s %10s %14s\n", "microservice", "containers", "target(ms)")
	for _, ms := range sortutil.Keys(plan.Containers) {
		// A shared microservice has one target per service; show the
		// tightest (it's what the deployment must honor). Sorted iteration
		// keeps ties deterministic.
		target := ""
		best := 0.0
		for _, svc := range perSvc {
			if t, ok := plan.PerService[svc].Targets[ms]; ok && (target == "" || t < best) {
				best = t
				target = fmt.Sprintf("%.2f", t)
			}
		}
		fmt.Fprintf(w, "%-28s %10d %14s\n", ms, plan.Containers[ms], target)
	}
	if len(plan.Ranks) > 0 {
		fmt.Fprintln(w, "\npriorities at shared microservices (0 = highest):")
		for _, ms := range sortutil.Keys(plan.Ranks) {
			fmt.Fprintf(w, "  %-24s %v\n", ms, plan.Ranks[ms])
		}
	}
}

// cmdRun runs the spec on the control loop, printing the per-tier outcome
// summary, the per-window control table and the last window's per-service
// SLA outcomes, and writing the timeline CSV artifact.
func cmdRun(args []string) {
	fs, start := scenarioFlags("run", "workload spec (YAML or JSON) to run (required)")
	timelinePath := fs.String("timeline", "timeline.csv", "write the per-minute per-tier timeline CSV to this file (empty = skip)")
	obsAddr := fs.String("obs-addr", "", "serve control-plane self-observability on this address (Prometheus /metrics, JSON /spans, /debug/pprof); the process stays up after the run until interrupted")
	fs.Parse(args)
	sc, stop := start()
	defer stop()

	var rec *obs.Recorder
	var srv *obs.Server
	if *obsAddr != "" {
		rec = obs.New(nil)
		srv = serve(*obsAddr, rec.Handler(), "self-observability", "/metrics, /spans, /debug/pprof")
	}
	began := time.Now()
	res, err := sc.Run(rec)
	if err != nil {
		log.Fatal(err)
	}
	res.Report(os.Stdout)
	fmt.Printf("run took %.2fs wall\n", time.Since(began).Seconds())
	if *timelinePath != "" {
		writeFile(*timelinePath, res.WriteTimelineCSV)
	}
	if srv != nil {
		holdForScrape(srv)
	}
}

// writeFile creates path, fills it with write and announces it on stderr.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
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
