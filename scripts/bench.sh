#!/usr/bin/env sh
# Planner-scalability benchmarks.
#
# Each target runs a benchmark pair, writes the raw `go test -bench` output
# (benchstat-friendly: pass BENCH_COUNT=10 and feed two files to
# `benchstat old.txt new.txt`), and folds the headline speedup into a JSON
# record with its own pass/fail gate:
#
#   bench5  compiled plan templates (PR 5): the recursive merge tree kept as
#           the test oracle (scaling.NaivePlan, export_test.go) vs a warmed
#           TemplateCache per window      -> bench_5.txt, BENCH_5.json
#   bench6  incremental sharded planning (PR 6): the map-based whole-app
#           pipeline kept as the test oracle (monolithicPlan, oracle_test.go)
#           vs IncrementalPlanner at 10% dirty services per window on the
#           1000x50x10 topology           -> bench_6.txt, BENCH_6.json
#   bench7  simulator engine throughput (PR 10, re-gated in PR 15): serial
#           exact engine vs the hybrid fluid/discrete partitioned engine, in
#           simulated requests per wall-clock second, and the exact engine's
#           allocations per request       -> bench_7.txt, BENCH_7.json
#   all     all targets in sequence
#
# A target whose gate fails exits non-zero after writing its JSON. With
# BENCH_SMOKE=1 a one-iteration timing ratio is reported but not gated (one
# iteration on a loaded machine says nothing about a speedup); only
# machine-independent counts are (bench7's allocations per request).
#
# Usage:
#   scripts/bench.sh [bench5|bench6|bench7|all]   # default: all
#   BENCH_COUNT=10 scripts/bench.sh bench6
#   BENCH_SMOKE=1 scripts/bench.sh bench5  # 1 iteration per benchmark (CI)
#   BENCH_OUT=... BENCH_JSON=... scripts/bench.sh bench6   # override paths
#   BENCH_PARENT=/path/to/parent/checkout scripts/bench.sh bench7
#                                          # also time the parent's exact engine
set -eu

cd "$(dirname "$0")/.."

TARGET="${1:-all}"
COUNT="${BENCH_COUNT:-1}"
BENCHTIME="${BENCH_BENCHTIME:-2s}"
SMOKE=0
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
	BENCHTIME=1x
	SMOKE=1
fi

bench5() {
	OUT="${BENCH_OUT:-bench_5.txt}"
	JSON="${BENCH_JSON:-BENCH_5.json}"
	echo "== bench5: compiled plan templates (benchtime=$BENCHTIME count=$COUNT) =="
	go test -run '^$' -bench 'BenchmarkCompiledVsNaive' \
		-benchtime "$BENCHTIME" -count "$COUNT" -benchmem \
		./internal/scaling | tee "$OUT"

	# Fold into BENCH_5.json: mean ns/op per benchmark name and the headline
	# per-window speedup (naive / compiled) on the 100x50x10 topology. The
	# acceptance gate for PR 5 is speedup >= 5.
	awk -v json="$JSON" -v smoke="$SMOKE" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns[name] += $3
		cnt[name]++
	}
	END {
		naive = ns["BenchmarkCompiledVsNaive/naive"] / cnt["BenchmarkCompiledVsNaive/naive"]
		comp = ns["BenchmarkCompiledVsNaive/compiled"] / cnt["BenchmarkCompiledVsNaive/compiled"]
		speedup = naive / comp
		printf "{\n" > json
		printf "  \"benchmark\": \"BenchmarkCompiledVsNaive\",\n" >> json
		printf "  \"topology\": {\"services\": 100, \"microservices_per_service\": 50, \"sharing_degree\": 10},\n" >> json
		printf "  \"naive_ns_per_window\": %.0f,\n", naive >> json
		printf "  \"compiled_ns_per_window\": %.0f,\n", comp >> json
		printf "  \"speedup\": %.2f,\n", speedup >> json
		pass = (speedup >= 5 || smoke)
		printf "  \"gate\": \"%s\",\n", (smoke ? "smoke: speedup not gated" : "speedup >= 5") >> json
		printf "  \"pass\": %s\n", (pass ? "true" : "false") >> json
		printf "}\n" >> json
		printf "bench5 speedup: %.2fx (%s): %s\n", speedup, (smoke ? "smoke: not gated" : "gate >= 5"), (pass ? "PASS" : "FAIL")
		exit pass ? 0 : 1
	}' "$OUT"
	echo "wrote $OUT and $JSON"
}

bench6() {
	OUT="${BENCH_OUT:-bench_6.txt}"
	JSON="${BENCH_JSON:-BENCH_6.json}"
	echo "== bench6: incremental sharded planning (benchtime=$BENCHTIME count=$COUNT) =="
	go test -run '^$' -bench 'BenchmarkIncrementalVsCompiled' \
		-benchtime "$BENCHTIME" -count "$COUNT" -benchmem \
		./internal/multiplex | tee "$OUT"

	# Fold into BENCH_6.json: mean ns/op for the map-based oracle over a warm
	# template cache vs the incremental planner at 10% dirty services per
	# window. The acceptance gate for PR 6 is compiled / incremental >= 5, on the aligned
	# victims at frozen utilization it was defined on; the live-* pair
	# (scattered victims, utilization moving every window: nothing skipped) is
	# reported beside it, not gated.
	awk -v json="$JSON" -v smoke="$SMOKE" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns[name] += $3
		cnt[name]++
	}
	END {
		comp = ns["BenchmarkIncrementalVsCompiled/compiled"] / cnt["BenchmarkIncrementalVsCompiled/compiled"]
		incr = ns["BenchmarkIncrementalVsCompiled/incremental"] / cnt["BenchmarkIncrementalVsCompiled/incremental"]
		speedup = comp / incr
		printf "{\n" > json
		printf "  \"benchmark\": \"BenchmarkIncrementalVsCompiled\",\n" >> json
		printf "  \"topology\": {\"services\": 1000, \"microservices_per_service\": 50, \"sharing_degree\": 10},\n" >> json
		printf "  \"dirty_frac\": 0.1,\n" >> json
		printf "  \"compiled_ns_per_window\": %.0f,\n", comp >> json
		printf "  \"incremental_ns_per_window\": %.0f,\n", incr >> json
		printf "  \"speedup\": %.2f,\n", speedup >> json
		lc = "BenchmarkIncrementalVsCompiled/live-compiled"
		li = "BenchmarkIncrementalVsCompiled/live-incremental"
		if (cnt[lc] > 0 && cnt[li] > 0) {
			printf "  \"live_compiled_ns_per_window\": %.0f,\n", ns[lc] / cnt[lc] >> json
			printf "  \"live_incremental_ns_per_window\": %.0f,\n", ns[li] / cnt[li] >> json
			printf "  \"live_speedup\": %.2f,\n", (ns[lc] / cnt[lc]) / (ns[li] / cnt[li]) >> json
		}
		pass = (speedup >= 5 || smoke)
		printf "  \"gate\": \"%s\",\n", (smoke ? "smoke: speedup not gated" : "speedup >= 5") >> json
		printf "  \"pass\": %s\n", (pass ? "true" : "false") >> json
		printf "}\n" >> json
		printf "bench6 speedup: %.2fx (%s): %s\n", speedup, (smoke ? "smoke: not gated" : "gate >= 5"), (pass ? "PASS" : "FAIL")
		if (cnt[li] > 0) printf "bench6 live traffic: incremental %.1f ms/window (reported, not gated)\n", ns[li] / cnt[li] / 1e6
		exit pass ? 0 : 1
	}' "$OUT"
	echo "wrote $OUT and $JSON"
}

bench7() {
	OUT="${BENCH_OUT:-bench_7.txt}"
	JSON="${BENCH_JSON:-BENCH_7.json}"
	echo "== bench7: simulator engine throughput (benchtime=$BENCHTIME count=$COUNT) =="
	go test -run '^$' -bench 'BenchmarkEngineThroughput' \
		-benchtime "$BENCHTIME" -count "$COUNT" -benchmem \
		./internal/sim | tee "$OUT"
	if [ -n "${BENCH_PARENT:-}" ]; then
		# The same benchmark on a checkout of the parent commit, in the same
		# session, so the exact-engine ratio compares like with like.
		echo "== bench7: parent exact engine ($BENCH_PARENT) =="
		(cd "$BENCH_PARENT" && go test -run '^$' -bench 'BenchmarkEngineThroughput/exact' \
			-benchtime "$BENCHTIME" -count "$COUNT" -benchmem ./internal/sim) |
			sed 's/^BenchmarkEngineThroughput\/exact/BenchmarkEngineThroughput\/parent-exact/' | tee -a "$OUT"
	fi

	# Fold into BENCH_7.json: mean simulated requests per second for the
	# exact and hybrid engines on the 40-service shared-pool topology, and the
	# exact engine's heap allocations per simulated request. Both gates hold
	# on any machine: allocations per request is a count (ROADMAP item 2:
	# <= 10; the closure-chain runtime took ~50), and hybrid / exact >= 2 is a
	# ratio of two runs of one session (it was >= 3 until the exact engine
	# itself got ~2x faster in PR 15; PR 21 moved the exact engine's network
	# hops off the event heap, which the fluid path cannot use — its events
	# carry drawn times — so the ratio fell again, ~3.1 to ~2.6, and stays
	# above the gate). With BENCH_PARENT set, the parent's exact engine and
	# the speedup over it are reported, not gated. A smoke run gates only the
	# allocation count: three one-iteration runs read hybrid/exact 1.77,
	# 2.00 and 2.01 on a machine where full benchtime reads ~2.6.
	awk -v json="$JSON" -v smoke="$SMOKE" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		cnt[name]++
		ns[name] += $3
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "req/s") rps[name] += $i
			if ($(i + 1) == "allocs/op") allocs[name] += $i
		}
	}
	END {
		e = "BenchmarkEngineThroughput/exact"
		h = "BenchmarkEngineThroughput/hybrid"
		p = "BenchmarkEngineThroughput/parent-exact"
		exact = rps[e] / cnt[e]
		hybrid = rps[h] / cnt[h]
		# requests per op = req/s x s/op, from the same lines.
		apr = (allocs[e] / cnt[e]) / (exact * ns[e] / cnt[e] / 1e9)
		speedup = hybrid / exact
		pass = (apr <= 10 && (speedup >= 2 || smoke))
		printf "{\n" > json
		printf "  \"benchmark\": \"BenchmarkEngineThroughput\",\n" >> json
		printf "  \"topology\": {\"services\": 40, \"sharing_block\": 4, \"containers_per_microservice\": 2, \"hosts\": 16},\n" >> json
		printf "  \"exact_requests_per_sec\": %.0f,\n", exact >> json
		printf "  \"exact_allocs_per_request\": %.3f,\n", apr >> json
		printf "  \"hybrid_requests_per_sec\": %.0f,\n", hybrid >> json
		printf "  \"speedup\": %.2f,\n", speedup >> json
		if (cnt[p] > 0) {
			parent = rps[p] / cnt[p]
			printf "  \"parent_exact_requests_per_sec\": %.0f,\n", parent >> json
			printf "  \"exact_speedup_vs_parent\": %.2f,\n", exact / parent >> json
		}
		printf "  \"gate\": \"%s\",\n", (smoke ? "exact_allocs_per_request <= 10 (smoke: speedup not gated)" : "exact_allocs_per_request <= 10 && speedup >= 2") >> json
		printf "  \"pass\": %s\n", (pass ? "true" : "false") >> json
		printf "}\n" >> json
		printf "bench7 exact allocs/request: %.3f (gate <= 10), hybrid/exact: %.2fx (%s): %s\n", apr, speedup, (smoke ? "smoke: not gated" : "gate >= 2"), (pass ? "PASS" : "FAIL")
		if (cnt[p] > 0) printf "bench7 exact vs parent exact: %.2fx (reported, not gated)\n", exact / parent
		exit pass ? 0 : 1
	}' "$OUT"
	echo "wrote $OUT and $JSON"
}

case "$TARGET" in
bench5) bench5 ;;
bench6) bench6 ;;
bench7) bench7 ;;
all)
	bench5
	bench6
	bench7
	;;
*)
	echo "usage: scripts/bench.sh [bench5|bench6|bench7|all]" >&2
	exit 2
	;;
esac
