// Command experiments regenerates the paper's evaluation tables and figures
// against the simulated substrate. Run with -list to see available
// experiment IDs, -fig to select specific ones (comma-separated), or -all.
// It regenerates figures only: how fast a layer runs is measured by bench/
// and scripts/bench.sh.
//
// Example:
//
//	go run ./cmd/experiments -fig fig11,fig12
//	go run ./cmd/experiments -all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"erms/internal/experiments"
	"erms/internal/parallel"
)

func main() {
	var (
		figs    = flag.String("fig", "", "comma-separated experiment IDs (e.g. fig2,fig11)")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "reduced sweeps and simulation time")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		format  = flag.String("format", "text", "output format: text, markdown, csv")
		workers = flag.Int("parallel", 0, "worker-pool size for independent simulation runs (0 = GOMAXPROCS); output is identical at any value")
	)
	flag.Parse()
	parallel.SetWorkers(*workers)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *figs != "":
		for _, id := range strings.Split(*figs, ",") {
			id = strings.TrimSpace(id)
			// Accept both "2" and "fig2".
			if !strings.HasPrefix(id, "fig") {
				id = "fig" + id
			}
			ids = append(ids, id)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: experiments -all | -fig <ids> [-quick]; -list shows IDs")
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			switch *format {
			case "markdown", "md":
				t.FprintMarkdown(os.Stdout)
			case "csv":
				t.FprintCSV(os.Stdout)
			default:
				t.Fprint(os.Stdout)
			}
		}
		if *format == "text" {
			fmt.Printf("-- %s completed in %s --\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
