// Command bench is the repository's control-window benchmark: four workloads
// driven as a closed loop with one client (windows back to back from one
// goroutine), end-to-end metrics from an untraced run and per-layer metrics
// from a traced run of the same windows. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is its result
//	bench suite  [--seed N] [--seconds S]                    every workload, untraced then traced, one process each
//	bench repeat [--seed N] [--seconds S]                    the untraced set twice, differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	mode := ""
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "suite" || args[0] == "repeat") {
		mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "derives the rate traces, the chaos schedule and the simulation seeds")
	seconds := fs.Float64("seconds", 10, "time whole cycles of windows for at least this long")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans to this file as JSON")
	_ = fs.Parse(args) // ExitOnError

	var err error
	switch mode {
	case "suite":
		err = suite(*seed, *seconds)
	case "repeat":
		err = repeat(*seed, *seconds)
	default:
		err = single(*workload, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// single is one run of one workload in one mode. Everything it prints above
// the result line is for people; the suite reads the lines it marks.
func single(name string, seed uint64, seconds float64, traced bool, traceOut string) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	out, err := run(s, seed, seconds, traced, traceOut)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("workload %s seed %d traced %v windows %d gomaxprocs %d\n", name, seed, traced, out.Windows, runtime.GOMAXPROCS(0))
	fmt.Printf("%s%s %s\n", digestPrefix, name, out.Digest)
	for _, row := range out.Layers {
		fmt.Printf("layer %-24s %12.3f ms %6.1f%%\n", row.Name, row.Ms, 100*row.Share)
	}
	for _, p := range out.Problems {
		fmt.Printf("check failed: %s\n", p)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(out.Problems))
	}
	return nil
}
