#!/usr/bin/env sh
# CI gate: vet, build, and run the full test suite under the race detector.
# The -race pass is what validates the parallel experiment fan-out — the
# worker pool, the per-run seed handoff, and the ordered result folds all
# run concurrently in the determinism tests.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

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
# package use, and the zero value of an enum (sim.RouteRoundRobin). An
# allowlist entry that gains a reader or no longer exists fails the gate too,
# so the list cannot rot. Type-checks the whole repository in ~3 s.
# The same walk asks who writes each exported field of a reached struct type
# (composite literal, assignment, ++, &x.F, pointer-method call; main and
# init count — a default such as `if c.N <= 0 { c.N = 8 }` does not): a
# settable value no program sets fails unless allowlisted with the ROADMAP
# item that removes it. Last, it counts the settable values — exported
# fields of *Config/*Opts/*Options/*Spec structs, With* options, cmd/ flags —
# so "options added" is a measured number, and fails when the count differs
# from settableCount (reach_test.go); a change that adds or removes options
# sets it to the new count.
echo "== every declaration has a reader, every field a writer, settable values pinned =="
reach_out=$(mktemp)
if ! go test -count=1 -v -run 'TestEveryDeclarationHasAReader|TestEveryFieldHasAWriter|TestSettableValues' . >"$reach_out" 2>&1; then
	cat "$reach_out" >&2
	rm -f "$reach_out"
	exit 1
fi
grep -o 'settable values: .*' "$reach_out"
rm -f "$reach_out"

echo "== go test -race =="
go test -race ./...

# bench/ is a module of its own (erms/bench, replace erms => ../), so the
# ./... patterns above never reach it: an internal/ API change that breaks
# the benchmark would otherwise show only when the pipeline runs it.
echo "== benchmark module (vet + test against this checkout's internal/ API) =="
(cd bench && go vet ./... && go test ./...)

# Zero-allocation promises, checked outside -race (the detector itself
# allocates, so testing.AllocsPerRun is meaningless there): every obs call
# on a nil recorder is free, and the simulator stays allocation-free in
# steady state — the event loop's heap, the network-hop lane beside it, and
# on top of them a whole request (issue, route, queue, process, downstream
# stages, return) with the resilience layer compiled in but disabled — and a
# warm plan-template evaluation (the whole of the planner's initial pass)
# allocates nothing either, nor does ingesting a sampled span into a trace
# coordinator that has held a window before, nor does scoring a placement
# after a host changed (one table refresh, the group scan, the cached means).
echo "== zero-alloc gates (obs disabled path, sim engine heap + lane and whole request, template Solve, span ingest, warm Place) =="
go test -run 'ZeroAlloc' -count=1 ./internal/obs ./internal/sim ./internal/scaling ./internal/trace ./internal/provision

# The race pass above runs every package once at the default worker count.
# Re-run the chaos determinism gate explicitly at two pool sizes: the fault
# schedule, every injection, and all three control loops must render
# byte-identical tables whether the runners share one worker or fan out.
echo "== chaos determinism (workers=1 vs 4) =="
go test -run 'TestFaultTablesIdenticalAcrossWorkers|TestGenerateDeterministic' \
	./internal/experiments ./internal/chaos

# The data-plane resilience gate: the fig23 retry-storm experiment (seeded
# retries with jittered backoff, breakers, shedding) must render
# byte-identical tables at one worker and four, and must reproduce the
# headline ordering (unbounded retries worst, budgeted ≈ no retries).
echo "== resilience determinism (fig23, workers=1 vs 4) =="
go test -run 'TestFig23' -count=1 ./internal/experiments

# The planner-scalability gate (PR 5 + PR 6): the compiled template — the one
# Algorithm 1 outside the tests — must stay bit-identical to the recursive
# merge tree kept as its oracle (naivePlan in internal/scaling/oracle_test.go),
# errors included, and Explain's render of it byte-identical to the oracle's;
# the incremental sharded planner — the one §5.3.2 planner outside the tests —
# must stay bit-identical to the map-based whole-app pipeline kept as its
# oracle (monolithicPlan in internal/multiplex/oracle_test.go) at shards=1
# and shards=4, fresh on the paper apps and an Alibaba-shaped one, kept
# across a dirty-fraction schedule (replanning exactly the mutated services)
# and under random mutation sequences, while handing out its cached
# allocations uncopied.
echo "== planner determinism (template vs oracle + Explain, planner vs oracle, dirty schedule + PlanScheme + incremental, workers=1 vs 4) =="
go test -count=1 -run 'TestCompiled|TestTemplateCache|TestExplain' ./internal/scaling
go test -count=1 \
	-run 'TestPlanSchemeByteIdenticalAcrossWorkers|TestFreshPlannerMatchesOracleOnAppTopologies|TestDirtyScheduleMatchesOracle|TestIncremental' \
	./internal/multiplex

# The spec front-end gates (PR 7).
#
# First, a short fuzz pass over the workload-spec parser: malformed YAML and
# JSON must produce errors, never panics, and any accepted spec must
# re-validate cleanly. The corpus seeds cover the shipped example specs.
echo "== spec parser fuzz (15s) =="
go test -run=NONE -fuzz=FuzzParse -fuzztime=15s ./internal/spec

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

# Third, the SLO-tier contract: under the flash-crowd spec the sheddable
# tier's violation rate must be at least the critical tier's, and admission
# control must shed more sheddable than critical traffic. Also re-pins the
# spec-built-vs-code-built golden equality at two worker counts.
echo "== spec tier contract + golden equality =="
go test -count=1 -run 'TestFigSpecTierContract|TestCompileGolden|TestRunDeterminism|TestRunInjectsChaos|TestRunScoresDrift|TestExampleTimelinesGolden' \
	./internal/experiments ./internal/spec

# The drift-loop gates (PR 8).
#
# TestFigDrift is the determinism + reconvergence gate: the figDrift table
# (mid-run 3x service-time shift of a shared microservice) must be
# byte-identical at one worker and four, the drift-enabled controller must
# reconverge after the shift, and the frozen controller must not.
# TestDriftDisabledPathIdentical pins that a controller without drift
# detection — and one whose detector can never fire — produce identical
# window reports (drift off is a pure observer). The obs export test is the
# counter-name contract for the new erms.self.drift_* / model_swaps series.
echo "== drift loop (figDrift determinism + disabled-path identity + counter export) =="
go test -count=1 \
	-run 'TestFigDrift|TestDriftDisabledPathIdentical|TestDriftSwapInstallsModelAndInvalidatesTemplate|TestAllCountersExportOnMetrics' \
	./internal/experiments ./internal/core ./internal/obs

# One-iteration smoke of the planner benchmarks: catches bit-rot in the
# bench harnesses and the BENCH_{5,6}.json folds without paying full
# benchtime.
echo "== bench smoke (1 iteration) =="
BENCH_SMOKE=1 BENCH_OUT=/tmp/bench_5_smoke.txt BENCH_JSON=/tmp/BENCH_5_smoke.json \
	scripts/bench.sh bench5 >/dev/null
BENCH_SMOKE=1 BENCH_OUT=/tmp/bench_6_smoke.txt BENCH_JSON=/tmp/BENCH_6_smoke.json \
	scripts/bench.sh bench6 >/dev/null

# The operator gates (PR 9).
#
# TestFigOperatorDeterministicAcrossWorkers: the figOperator rollout
# timeline (good push canaries/promotes/commits, bad push auto-rolls back)
# must render byte-identical tables at one worker and four.
# TestFigOperatorContract: the good spec must commit within 4 windows of
# its push, the 4x-tightened spec must roll back, and every fleet window
# from the bad push onward must be byte-identical to a trajectory that
# never saw it (zero fleet-wide regression beyond the canary slice).
# TestBadPushRollsBackWithFleetUntouched + the interleaving tests pin the
# same contracts at the state-machine level, including a guardrail breach
# landing in the same window as a drift model swap and pushes landing
# mid-rollout (supersede in canary, queue in soak). The obs export test is
# the counter-name contract for the erms.self.rollout_* series and the
# spec-generation gauge.
echo "== operator gates (figOperator determinism + rollback contracts + counter export) =="
go test -count=1 \
	-run 'TestFigOperator|TestAllCountersExportOnMetrics' \
	./internal/experiments ./internal/obs
go test -count=1 ./internal/operator

# The simulator scale-out gates (PR 10).
#
# TestRunPartitionedExactIdenticalAcrossWorkersAndPartitions is the headline
# determinism contract: exact partitioned output — reservoirs, samples,
# spans, stream rows — is byte-identical at workers 1 vs 4 and at any
# Partitions setting. TestRunPartitionedHybridDeterministic pins the same
# invariance with the fluid fast path engaged, and TestHybridFidelity is the
# fidelity-tolerance regression table (hybrid P95 / violation rate vs exact,
# requests conserved), on bench7's topology among others.
#
# The engine's two queues (PR 21) are checked here too, uncached:
# TestLaneMatchesHeapOracle replays random programs on the lane + heap engine
# and on the one-heap engine it replaced (same events, same order, same
# Pending and Stats), TestHopsSkipTheHeap counts that network hops really
# bypass the heap (pushes <= 0.4 x events), and TestRuntimeFingerprintPinned
# hashes four full runs against hashes captured before either change.
echo "== simulator scale-out (partition determinism + hybrid fidelity, workers=1 vs 4; lane vs heap oracle, pinned fingerprints) =="
go test -count=1 \
	-run 'TestRunPartitioned|TestHybridFidelity|TestFluidEligibility|TestSharingGroups|TestLaneMatchesHeapOracle|TestHopsSkipTheHeap|TestRuntimeFingerprintPinned' \
	./internal/sim

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
#       (~190 000 before, ~17 500 now: what a plan hands out, little else).
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
# span buffer scoped to one evaluation reads ~1 500 and ~21 MB.
echo "== retention gate (social-diurnal: allocs per window <= 5000, live heap <= 40 MB) =="
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
	exit !(allocs > 0 && allocs <= 5000 && heap > 0 && heap <= 40)
}'

# The same gate on the control plane: no per-series state grows with the
# cluster. One untraced scale1k-control run (1000 services, 2000 hosts). While
# every Apply scraped the cluster into a time-series store nobody queried,
# that store alone held ~4 MB of one point per host and per microservice and
# this read ~35 MB live; the controller, orchestrator, cluster and planner
# caches read ~31 MB.
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
