#!/usr/bin/env sh
# CI gate: vet, build, and run the full test suite twice, once plain and
# once under the race detector. The -race pass is what validates the
# parallel experiment fan-out — the worker pool, the per-run seed handoff,
# and the ordered result folds all run concurrently in the determinism tests.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# Every example program runs to completion at its defaults: a README command
# that exits non-zero is a defect, not documentation (stdout discarded).
echo "== examples =="
for main in examples/*/main.go; do
	dir=$(dirname "$main")
	echo "go run ./$dir"
	go run "./$dir" >/dev/null
done

# Formatting: gofmt must have nothing to say about any Go file outside bench/
# (a module of its own, changed only by benchmark PRs) and testdata.
echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v -e '^bench/' -e '/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Every package-level declaration has a reader in some program (a main of
# cmd/, examples/ or bench/, an init, a package-level var initializer) — or
# sits on the test's short allowlist, which may hold only a function ROADMAP
# item 1 will give a reader, a test oracle or accessor the tests of another
# package use, and the zero value of an enum. An allowlist entry that gains a
# reader or no longer exists fails the gate too, so the list cannot rot.
# Type-checks the whole repository in ~3 s.
# The same walk asks who writes each exported field of a reached struct type
# (composite literal, assignment, ++, &x.F, pointer-method call; main and
# init count — a default such as `if c.N <= 0 { c.N = 8 }` does not): a
# settable value no program sets fails unless allowlisted with the ROADMAP
# item that removes it. Third, it asks who reads each field, exported or not,
# of a reached struct type (a selector that is not an assignment target, a
# json tag, a value handed to fmt or reflect.DeepEqual, a map key or ==
# operand; a store x.F[k] = v, a self-append, a copy of F into another
# value's F and a store through a pointer field, *x.F++ or *x.F = v, are no
# reads): data filled and never consumed fails unless allowlisted with its
# reader — a ROADMAP item, a test oracle, or a pinned golden's hash. Last, it
# counts the settable values — exported fields of *Config/*Opts/*Options/*Spec
# structs, With* options, cmd/ flags — so "options added" is a measured
# number, and fails when the count differs from settableCount (reach_test.go);
# a change that adds or removes options sets it to the new count.
echo "== every declaration has a reader, every field a writer and a reader, settable values pinned =="
reach_out=$(mktemp)
if ! go test -count=1 -v -run 'TestEveryDeclarationHasAReader|TestEveryFieldHasAWriter|TestEveryFieldHasAReader|TestSettableValues' . >"$reach_out" 2>&1; then
	cat "$reach_out" >&2
	rm -f "$reach_out"
	exit 1
fi
grep -o 'settable values: .*' "$reach_out"
# Beside it, the net non-test Go line count (outside bench/), counted the one
# way ROADMAP's convention names, so every change's count comes from here.
echo "non-test Go lines: $(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -n 1 | awk '{print $1}')"
# Beside the option count, the verdict count: every row of EXPERIMENTS'
# verdict table has a claim in internal/experiments/verdicts_test.go — a
# predicate over its figure's quick tables, which TestFigures runs in the
# plain pass below — or a prose-only entry with its reason (< 1 s; renders
# nothing).
if ! go test -count=1 -v -run '^TestVerdictRowsCovered$' ./internal/experiments >"$reach_out" 2>&1; then
	cat "$reach_out" >&2
	rm -f "$reach_out"
	exit 1
fi
grep -o 'verdict claims: .*' "$reach_out"
rm -f "$reach_out"

# The plain pass runs what -race cannot: the zero-allocation gates (the
# detector itself allocates, so testing.AllocsPerRun means nothing there) and
# the fig12/fig13/fig15 goldens and claims (those three subtests of
# TestFigures skip under -race). Every determinism, oracle and contract test
# runs in it too, each documented at its definition. The log lists every
# package, every skipped test and the three heavy figures' verdicts, so a
# gate that stopped running shows, and TestFigures/figDrift's time: its
# frozen arm overloads containers into queues thousands deep, so a dequeue
# that costs O(queue) again shows as a jump (~5 s on 2 cores with per-rank
# queues, ~19 s while every dequeue rescanned and memmoved the whole queue).
echo "== go test =="
test_out=$(mktemp)
if ! go test -count=1 -v ./... >"$test_out" 2>&1; then
	cat "$test_out" >&2
	rm -f "$test_out"
	exit 1
fi
grep -e '^ok' -e '--- SKIP' -e '--- PASS: TestFigures/fig12' -e '--- PASS: TestFigures/fig13' \
	-e '--- PASS: TestFigures/fig15' -e '--- PASS: TestFigures/figDrift (' "$test_out"
rm -f "$test_out"

# Every benchmark once (~12 s on 2 cores): a harness that no longer compiles
# or runs fails here, and so do the checks benchmarks make of their own runs
# (BenchmarkEngineSchedule's event counts, BenchmarkQuantile's side-by-side
# oracle), which no test executes.
echo "== benchmarks (1 iteration each) =="
go test -run=NONE -bench=. -benchtime=1x ./... >/dev/null

echo "== go test -race =="
# internal/experiments alone takes ~200 s under -race on 2 cores (~470 s while
# every container dequeue rescanned its whole queue, 580-700 s in earlier
# runs), within reach of go test's default 10-minute per-package timeout on a
# loaded machine; the explicit bound keeps a slow machine from failing the
# pass on time rather than on a race.
go test -race -timeout 30m ./...

# bench/ is a module of its own (erms/bench, replace erms => ../), so the
# ./... patterns above never reach it: an internal/ API change that breaks
# the benchmark would otherwise show only when the pipeline runs it.
echo "== benchmark module (vet + test against this checkout's internal/ API) =="
(cd bench && go vet ./... && go test ./...)

# The spec front-end gates (PR 7).
#
# First, a short fuzz pass over the workload-spec parser: malformed YAML and
# JSON must produce errors, never panics, and any accepted spec must
# re-validate cleanly. The corpus seeds cover the shipped example specs.
echo "== spec parser fuzz (15s) =="
go test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/spec
# The same for the persisted-app loader behind a spec's `app.kind: file`:
# no input panics LoadApp, and an app it accepts round-trips through
# SaveApp unchanged. The seeds are whole saved apps, tens of kilobytes, and
# minimizing each new-coverage input at the default 60 s would spend the
# whole budget on one input; 1 s keeps the mutator running.
echo "== persisted-app loader fuzz (10s) =="
go test -run=NONE -fuzz=FuzzLoadApp -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
# And for the simulator's Config.validate, the gate every spec, plan and
# figure run passes through: durations, warm-up, delays, δ, sample rate,
# failure times and a Static rate never panic it or make it walk minutes
# forever, and a config it accepts has only finite values (a NaN failure
# time once ran wherever the heap's sifts left it; a NaN rate hung the run).
echo "== simulator config fuzz (5s) =="
go test -run=NONE -fuzz=FuzzConfigValidate -fuzztime=5s ./internal/sim
# And for the data plane's accounting: one failure of any scope, time and
# recovery, under any attempt count and attempt timeout, on a two-microservice
# chain whose load stops early. No run panics, and every request issued ends
# as a completion or an error (a nil Resilience once parked calls on a dead
# container forever, and their requests never reached the result). The fuzz
# budget is 35 s in all: spec 15, persist 10, sim 5 + 5.
echo "== simulator request-accounting fuzz (5s) =="
go test -run=NONE -fuzz=FuzzRequestAccounting -fuzztime=5s ./internal/sim

# Second, the spec determinism gate, end to end through the real binary:
# the same spec and seed must emit a byte-identical timeline CSV across two
# runs and two worker-pool sizes. This is the whole-pipeline version of
# internal/spec's TestRunDeterminism — it also covers the CLI wiring.
echo "== spec determinism (ermsctl, quickstart + chaos, 2 runs x workers 1 vs 4; plan -spec workers 1 vs 4) =="
go build -o /tmp/ermsctl_ci ./cmd/ermsctl
/tmp/ermsctl_ci run -spec examples/quickstart/quickstart.yaml \
	-parallel 1 -timeline /tmp/spec_tl_a.csv >/dev/null
/tmp/ermsctl_ci run -spec examples/quickstart/quickstart.yaml \
	-parallel 1 -timeline /tmp/spec_tl_b.csv >/dev/null
/tmp/ermsctl_ci run -spec examples/quickstart/quickstart.yaml \
	-parallel 4 -timeline /tmp/spec_tl_c.csv >/dev/null
cmp /tmp/spec_tl_a.csv /tmp/spec_tl_b.csv
cmp /tmp/spec_tl_a.csv /tmp/spec_tl_c.csv
# The same gate on the fault-modelled example: a chaos block runs on the one
# window loop (core.Reconciler.Step), so the injected schedule, the repairs,
# retries and degraded windows it provokes — the per-window control table on
# stdout, minus the wall-clock line — and the timeline must be just as
# reproducible.
for run in a:1 b:1 c:4; do
	/tmp/ermsctl_ci run -spec examples/specs/chaos.yaml -parallel "${run#*:}" \
		-timeline "/tmp/chaos_tl_${run%:*}.csv" | grep -v '^run took' >"/tmp/chaos_out_${run%:*}.txt"
done
cmp /tmp/chaos_tl_a.csv /tmp/chaos_tl_b.csv
cmp /tmp/chaos_tl_a.csv /tmp/chaos_tl_c.csv
cmp /tmp/chaos_out_a.txt /tmp/chaos_out_b.txt
cmp /tmp/chaos_out_a.txt /tmp/chaos_out_c.txt
grep -q '^win  faults' /tmp/chaos_out_a.txt
# `plan -spec` (the plan the spec's first window applies) is a pure function
# of the spec at any worker count.
/tmp/ermsctl_ci plan -spec examples/quickstart/quickstart.yaml -parallel 1 >/tmp/plan_1.txt
/tmp/ermsctl_ci plan -spec examples/quickstart/quickstart.yaml -parallel 4 >/tmp/plan_4.txt
cmp /tmp/plan_1.txt /tmp/plan_4.txt
grep -q '^plan for ' /tmp/plan_1.txt
rm -f /tmp/ermsctl_ci /tmp/spec_tl_[abc].csv /tmp/chaos_tl_[abc].csv /tmp/chaos_out_[abc].txt /tmp/plan_[14].txt

# One-iteration smoke of the planner benchmarks: catches bit-rot in the
# bench harnesses and the BENCH_{5,6}.json folds without paying full
# benchtime.
echo "== bench smoke (1 iteration) =="
BENCH_SMOKE=1 BENCH_OUT=/tmp/bench_5_smoke.txt BENCH_JSON=/tmp/BENCH_5_smoke.json \
	scripts/bench.sh bench5 >/dev/null
BENCH_SMOKE=1 BENCH_OUT=/tmp/bench_6_smoke.txt BENCH_JSON=/tmp/BENCH_6_smoke.json \
	scripts/bench.sh bench6 >/dev/null

# One-iteration smoke of the engine-throughput bench harness and its
# BENCH_7.json fold (gates: exact allocs/request <= 10, hybrid >= 2x exact).
echo "== bench7 smoke (1 iteration) =="
BENCH_SMOKE=1 BENCH_OUT=/tmp/bench_7_smoke.txt BENCH_JSON=/tmp/BENCH_7_smoke.json \
	scripts/bench.sh bench7 >/dev/null

# The control-window gates (PR 14, PR 17), all read off one traced run of
# scale1k-control (1000 services, ~11 860 replicas, 2000 hosts) and all
# machine-independent — two ratios of phases of that one run and one count:
#
#   repair + rebalance < plan        a Repair that repairs nothing and a
#       Rebalance that moves nothing cost less than the planner (they ran 11x
#       the planner each while CountFor scanned every container and Rebalance
#       tried every move for real; ~2 ms against ~20 ms now);
#   plan < monolithic plan           a window through Controller.Plan against
#       a fresh planner on the same inputs in the probe window, over a
#       template cache the probe warmed (multiplex.monolithic_plan_ms): a kept
#       planner's window must beat a fresh one (~22 against ~50 ms; while that
#       metric timed the map-based pipeline, now the multiplex test oracle,
#       the gate was plan x 8 < monolithic at a ratio of ~25);
#   core.plan_allocs <= 80000        heap allocations of one Controller.Plan
#       (~190 000 before, ~17 500 with four maps per allocation, ~8 500 now
#       with one: what a plan hands out, little else).
#
# The run's own checks (digest, replicas, plan oracle) must pass too.
echo "== control-window gates (scale1k-control: repair + rebalance < plan, plan < monolithic, plan allocs) =="
res=$(bash bench/run.sh --workload scale1k-control --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$res" in
'{"correct":true,'*) ;;
*)
	echo "scale1k-control run is not correct: $res" >&2
	exit 1
	;;
esac
layer() { printf '%s\n' "$res" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }
awk -v repair="$(layer 'kube\.repair_ms')" -v rebalance="$(layer 'provision\.rebalance_ms')" \
	-v plan="$(layer 'core\.plan_ms')" -v mono="$(layer 'multiplex\.monolithic_plan_ms')" \
	-v allocs="$(layer 'core\.plan_allocs')" 'BEGIN {
	printf "repair %.2f ms + rebalance %.2f ms vs plan %.2f ms vs monolithic plan %.2f ms; %d allocations per plan\n",
		repair, rebalance, plan, mono, allocs
	exit !(plan > 0 && repair + rebalance < plan && plan < mono && allocs > 0 && allocs <= 80000)
}'

# The retention gate (PR 18): a simulating loop leaves behind what something
# reads and no more. One untraced social-diurnal run; a count and a byte total
# of a deterministic run hold on any machine. While the controller's trace
# coordinator kept every window's sampled spans (merged under colliding trace
# IDs) these read 28 727 allocations per window and 91.7 MB live; one reused
# span buffer scoped to one evaluation read ~1 500 and ~21 MB. Since sampling
# is a hash of the trace ID, no evaluation attaches the coordinator, and the
# loop holds ~1 300 allocations per window and ~0.16 MB live; ~1 160 while
# every minute, recorded or not, filled per-microservice latency reservoirs,
# ~630 since only a recorded minute does (a window records none).
echo "== retention gate (social-diurnal: allocs per window <= 1000, live heap <= 2 MB) =="
res=$(bash bench/run.sh --workload social-diurnal --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$res" in
'{"correct":true,'*) ;;
*)
	echo "social-diurnal run is not correct: $res" >&2
	exit 1
	;;
esac
awk -v allocs="$(layer 'allocs_per_window')" -v heap="$(layer 'heap_live_mb')" 'BEGIN {
	printf "%d allocations per window, %.1f MB live heap\n", allocs, heap
	exit !(allocs > 0 && allocs <= 1000 && heap > 0 && heap <= 2)
}'

# The simulator's per-window set-up costs what the window simulates, not a
# counter per call or a copy per check. One untraced scale100-window run
# (~9 s); a count of a deterministic run holds on any machine. While every
# call bumped a per-(service, microservice) rate counter no program read, and
# Config.validate copied each microservice's container slice to test it for
# emptiness, this read ~33 300 allocations per window; ~21 900 and 14.3 MB
# while every minute, warm-up and drain included, filled a 4 096-slot latency
# reservoir per microservice that no window records, and resolve allocated
# one callNode per graph node and one slice per stage; ~6 000 and 1.9 MB
# since.
echo "== simulator set-up gate (scale100-window: allocs per window <= 8000, <= 3 MB) =="
res=$(bash bench/run.sh --workload scale100-window --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$res" in
'{"correct":true,'*) ;;
*)
	echo "scale100-window run is not correct: $res" >&2
	exit 1
	;;
esac
awk -v allocs="$(layer 'allocs_per_window')" -v mb="$(layer 'alloc_mb_per_window')" 'BEGIN {
	printf "%d allocations, %.2f MB allocated per window\n", allocs, mb
	exit !(allocs > 0 && allocs <= 8000 && mb > 0 && mb <= 3)
}'

# The resilient simulator's per-window allocations: one untraced hotel-chaos
# run (per-attempt timeouts, retries, shedding); a count of a deterministic
# run holds on any machine. While every attempt's timeout stayed on the heap
# until it popped as a no-op, holding its call frame until then, and every
# cohort stream kept a latency reservoir no program read, this read ~988
# allocations per window at seed 1; ~825 since frames are recycled when the
# attempt settles; ~765 since no container keeps a list of its in-flight
# calls (a crash finds them on the frame heap) and the runtime's tables are
# sized up front; ~635 since unrecorded minutes fill no latency reservoir
# and the call trees live in three arrays.
echo "== resilient simulator gate (hotel-chaos: allocs per window <= 720) =="
res=$(bash bench/run.sh --workload hotel-chaos --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$res" in
'{"correct":true,'*) ;;
*)
	echo "hotel-chaos run is not correct: $res" >&2
	exit 1
	;;
esac
awk -v allocs="$(layer 'allocs_per_window')" 'BEGIN {
	printf "%d allocations per window\n", allocs
	exit !(allocs > 0 && allocs <= 720)
}'

# The same gate on the control plane: no per-series state grows with the
# cluster. One untraced scale1k-control run (1000 services, 2000 hosts). While
# every Apply scraped the cluster into a time-series store nobody queried,
# that store alone held ~4 MB of one point per host and per microservice and
# this read ~35 MB live; the controller, orchestrator, cluster and planner
# caches read ~31 MB, ~26 MB since an allocation keeps one name-keyed map.
echo "== control-plane retention gate (scale1k-control: live heap <= 33 MB) =="
res=$(bash bench/run.sh --workload scale1k-control --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$res" in
'{"correct":true,'*) ;;
*)
	echo "scale1k-control run is not correct: $res" >&2
	exit 1
	;;
esac
awk -v heap="$(layer 'heap_live_mb')" 'BEGIN {
	printf "%.1f MB live heap\n", heap
	exit !(heap > 0 && heap <= 33)
}'
