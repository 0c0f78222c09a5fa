#!/usr/bin/env bash
# Runs the tracked benchmarks and emits a BENCH_<date>.json snapshot in
# the repo root, so the perf trajectory is comparable across PRs.
#
# Usage:  scripts/bench.sh   # defaults: 3x whole-sim, 20000x micro
#         BENCHTIME=10x scripts/bench.sh   # override both
#
# The snapshot maps benchmark name -> ns/op and benchmark name ->
# allocs/op (everything runs under -benchmem). Whole-sim benchmarks
# (EngineOnly, the sweep pair) run few iterations; micro-benchmarks run
# enough to be stable at the chosen -benchtime.
set -euo pipefail
cd "$(dirname "$0")/.."

sim_benchtime="${BENCHTIME:-3x}"
micro_benchtime="${BENCHTIME:-20000x}"
out="BENCH_$(date +%Y-%m-%d).json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run xxx -bench 'BenchmarkEngineOnly$|BenchmarkSweepWorkers|BenchmarkOpenLoopDriver' \
	-benchtime "$sim_benchtime" -benchmem . | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkSnapshotAttach$' \
	-benchtime "$micro_benchtime" -benchmem . | tee -a "$tmp"
go test -run xxx \
	-bench 'BenchmarkBTree|BenchmarkBufferPoolGet$|BenchmarkBufferPoolGetView$|BenchmarkBulkLoad|BenchmarkBulkWriterRow$|BenchmarkHeapInsert|BenchmarkEngineQueryMix|BenchmarkCOWFirstWrite|BenchmarkIndexRead$|BenchmarkScratchRecycle$' \
	-benchtime "$micro_benchtime" -benchmem ./internal/rubisdb/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkBrowsingStep$|BenchmarkBiddingStep$' \
	-benchtime "$micro_benchtime" -benchmem ./internal/rubis/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkNewSnapshot$|BenchmarkOwnedSnapshotCycle$' \
	-benchtime "$sim_benchtime" -benchmem ./internal/rubis/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkCollectorSample$|BenchmarkNewCollectorFullCatalog$' \
	-benchtime "$micro_benchtime" -benchmem ./internal/sysstat/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkKernel' \
	-benchtime "$micro_benchtime" -benchmem ./internal/sim/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkStreamNew$|BenchmarkStreamReseed$|BenchmarkStreamDraw' \
	-benchtime "$micro_benchtime" -benchmem ./internal/rng/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkArrivalSchedule$' \
	-benchtime "$micro_benchtime" -benchmem ./internal/load/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkLatencyRecord$|BenchmarkWindowRotate$' \
	-benchtime "$micro_benchtime" -benchmem ./internal/telemetry/ | tee -a "$tmp"
go test -run xxx -bench 'BenchmarkDriverSteadyState|BenchmarkLBDispatch|BenchmarkDispatchWithFaults|BenchmarkDispatchWithCascade|BenchmarkCacheHitDispatch' \
	-benchtime "$micro_benchtime" -benchmem ./internal/tiers/ | tee -a "$tmp"

{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "ns_per_op": {\n'
	awk '/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		lines[n++] = sprintf("    \"%s\": %s", name, $3)
	}
	END {
		for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
	}' "$tmp"
	printf '  },\n'
	printf '  "allocs_per_op": {\n'
	awk '/^Benchmark/ && $8 == "allocs/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)
		lines[n++] = sprintf("    \"%s\": %s", name, $7)
	}
	END {
		for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
	}' "$tmp"
	printf '  }\n'
	printf '}\n'
} > "$out"
echo "wrote $out"
