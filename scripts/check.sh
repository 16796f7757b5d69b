#!/bin/sh
# check.sh — the repository's CI gate. Chains every static and dynamic
# verification, in cheapest-first order:
#
#   gofmt -l      formatting
#   go vet        stock correctness vet
#   go build      compilation
#   spvet         invariant analysis (internal/lint): maprange, wallclock,
#                 goroutine, floatorder, exhaustive, noalloc, obspure,
#                 poolescape, allow — run against the checked-in baseline
#                 (.spvet-baseline.json, which must stay empty for sim
#                 packages), plus a -json smoke asserting zero new errors
#   noalloc gate  the //spcoh:noalloc annotation set must stay consistent
#                 with the AllocsPerRun ceilings the unit tests enforce
#                 (TestNoallocAnnotationConsistency)
#   go test       full unit/integration suite, including the runtime
#                 determinism harness (TestDeterministicReplay) and the
#                 pinned output digests of every built-in profile under
#                 every protocol kind on the 4x4, 8x8 and 16x16 meshes
#                 (TestShardByteIdentityAllProfiles, TestShardBigMesh)
#   go test -race race detector on the packages exercising concurrency-safe
#                 surfaces (the simulator itself runs on one serial event
#                 engine: spvet's goroutine check enforces that statically,
#                 and no //spvet:allow goroutine remains in a sim package)
#   spsweep smoke quick-scale sweep end to end: run, resume (must recall
#                 every cell from the store), byte-compare the merged
#                 outputs, status must report all cells complete
#   spsweepd smoke the sweep job server end to end: daemon on an ephemeral
#                 port with bearer-token auth enabled, the same tiny matrix
#                 submitted over HTTP and executed by two concurrent remote
#                 `spsweep work` processes, merged results byte-compared
#                 against a local `spsweep run -jobs 1` of the same matrix;
#                 a tokenless request must bounce with 401
#   xval smoke    two-speed cross-validation end to end: a tiny matrix in
#                 both detailed and fast mode, the divergence report
#                 (-no-timing) byte-compared between a fresh parallel run
#                 and a fully-cached serial rerun
#   spscen smoke  scenario layer end to end: the embedded profile specs
#                 validate and build, a 50-seed generator fuzz sweep
#                 (validity + determinism + buildability), and a generated
#                 spec piped through spsim -spec twice must render
#                 byte-identically
#   run-config    one configuration table behind every entry point:
#                 spsim -pred bogus must exit non-zero, spsim -pred bcast
#                 must run, and spsweep run -threads 12 must be rejected
#                 before the store or any job is touched
#   spstat smoke  metrics pipeline end to end: a small instrumented run
#                 twice (series must be byte-identical), spstat -validate
#                 (epochs monotone/contiguous), JSON decode, and the
#                 collector-overhead benchmark into results/BENCH_metrics.json
#   bench smoke   every testing.B benchmark compiled and run once
#                 (-benchtime=1x) so benchmark code cannot rot, then
#                 spbench -core-bench refreshes results/BENCH_core.json
#                 with -core-gate 50: the run fails only when aggregate
#                 cycles/s falls >50% below the rolling baseline (median
#                 of recent history) — generous enough that wall noise on
#                 shared boxes cannot trip it, tight enough to catch a
#                 real engine regression; allocation regressions are gated
#                 by the AllocsPerRun ceilings inside go test (DESIGN.md §11)
#
# Any gate failing exits non-zero.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

sweepdir=$(mktemp -d)
daemon=""
trap '[ -n "$daemon" ] && kill "$daemon" 2>/dev/null; rm -rf "$sweepdir"' EXIT

echo "== spvet (invariant analysis, baseline-gated)"
go run ./cmd/spvet -baseline .spvet-baseline.json ./...
go run ./cmd/spvet -baseline .spvet-baseline.json -json ./... > "$sweepdir/spvet.json"
grep -q '"new_errors": 0' "$sweepdir/spvet.json" || {
    echo "spvet: -json report has new errors:" >&2
    cat "$sweepdir/spvet.json" >&2
    exit 1
}

echo "== noalloc annotation consistency"
go test -run TestNoallocAnnotationConsistency -count=1 ./internal/lint

echo "== go test"
go test ./...

echo "== go test -race"
go test -race ./internal/event ./internal/lint ./internal/sim \
    ./internal/stats ./internal/trace ./internal/workload
go test -race -short ./internal/experiments ./internal/sweep ./internal/sweepd

echo "== spsweep smoke (run / resume / status)"
go build -o "$sweepdir/spsweep" ./cmd/spsweep
"$sweepdir/spsweep" run -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -jobs 2 -dir "$sweepdir/store" \
    -summary "$sweepdir/summary.json" -format json \
    > "$sweepdir/run1.json" 2> "$sweepdir/run1.log"
"$sweepdir/spsweep" resume -jobs 4 -dir "$sweepdir/store" \
    -summary "" -format json \
    > "$sweepdir/run2.json" 2> "$sweepdir/run2.log"
cmp "$sweepdir/run1.json" "$sweepdir/run2.json" || {
    echo "spsweep: resumed output differs from first run" >&2
    exit 1
}
grep -q "4 cached, 0 executed, 0 failed" "$sweepdir/run2.log" || {
    echo "spsweep: resume re-executed completed jobs:" >&2
    cat "$sweepdir/run2.log" >&2
    exit 1
}
"$sweepdir/spsweep" status -dir "$sweepdir/store" | grep -q "4/4 complete, 0 pending" || {
    echo "spsweep: status does not report a complete store" >&2
    exit 1
}

echo "== spsweepd smoke (server sweep via two remote workers == local run)"
# Reference: the same matrix through the local engine, one worker.
"$sweepdir/spsweep" run -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -jobs 1 -dir "$sweepdir/localstore" \
    -summary "" -format json \
    > "$sweepdir/local.json" 2> "$sweepdir/local.log"
go build -o "$sweepdir/spsweepd" ./cmd/spsweepd
token="checksh-$$"
"$sweepdir/spsweepd" -addr 127.0.0.1:0 -addr-file "$sweepdir/addr" \
    -dir "$sweepdir/serverstore" -workers 0 -lease-ttl 30s -quiet \
    -token "$token" \
    2> "$sweepdir/spsweepd.log" &
daemon=$!
i=0
while [ ! -s "$sweepdir/addr" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
[ -s "$sweepdir/addr" ] || {
    echo "spsweepd: daemon never wrote its address file" >&2
    cat "$sweepdir/spsweepd.log" >&2
    exit 1
}
server="http://$(cat "$sweepdir/addr")"
# Tokenless requests must bounce off the auth middleware with 401.
if "$sweepdir/spsweep" status -server "$server" 2> "$sweepdir/noauth.log"; then
    echo "spsweepd: tokenless status succeeded against a token-protected daemon" >&2
    exit 1
fi
grep -q "bearer token" "$sweepdir/noauth.log" || {
    echo "spsweepd: tokenless rejection not diagnosable:" >&2
    cat "$sweepdir/noauth.log" >&2
    exit 1
}
"$sweepdir/spsweep" run -server "$server" -token "$token" \
    -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -format json \
    > "$sweepdir/server.json" 2> "$sweepdir/serverrun.log" &
submit=$!
"$sweepdir/spsweep" work -server "$server" -token "$token" -jobs 1 -poll 100ms -drain \
    2> "$sweepdir/worker1.log" &
w1=$!
"$sweepdir/spsweep" work -server "$server" -token "$token" -jobs 1 -poll 100ms -drain \
    2> "$sweepdir/worker2.log" &
w2=$!
wait "$w1" || { echo "spsweepd: worker 1 failed" >&2; cat "$sweepdir/worker1.log" >&2; exit 1; }
wait "$w2" || { echo "spsweepd: worker 2 failed" >&2; cat "$sweepdir/worker2.log" >&2; exit 1; }
wait "$submit" || {
    echo "spsweepd: server-mode run failed" >&2
    cat "$sweepdir/serverrun.log" >&2
    exit 1
}
cmp "$sweepdir/server.json" "$sweepdir/local.json" || {
    echo "spsweepd: server-merged results differ from the local run" >&2
    exit 1
}
# The two workers together executed every cell exactly once (cells are
# fast, so which worker wins each lease is a race — the count is not).
ok1=$(grep -c ": ok" "$sweepdir/worker1.log" || true)
ok2=$(grep -c ": ok" "$sweepdir/worker2.log" || true)
if [ "$((ok1 + ok2))" -ne 4 ]; then
    echo "spsweepd: workers executed $ok1+$ok2 cells, want 4" >&2
    cat "$sweepdir/worker1.log" "$sweepdir/worker2.log" >&2
    exit 1
fi
"$sweepdir/spsweep" status -server "$server" -token "$token" | grep -q "0 pending, 0 leased" || {
    echo "spsweepd: server status not terminal" >&2
    exit 1
}
"$sweepdir/spsweep" results -server "$server" -token "$token" -format json > "$sweepdir/results.json"
cmp "$sweepdir/results.json" "$sweepdir/local.json" || {
    echo "spsweepd: results subcommand bytes differ from the local run" >&2
    exit 1
}
kill "$daemon"
wait "$daemon" 2>/dev/null || true
daemon=""

echo "== xval smoke (two-speed cross-validation determinism)"
"$sweepdir/spsweep" xval -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -jobs 2 -dir "$sweepdir/xvalstore" \
    -out "$sweepdir/xval1.json" -no-timing \
    > /dev/null 2> "$sweepdir/xval1.log"
"$sweepdir/spsweep" xval -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -jobs 1 -dir "$sweepdir/xvalstore" \
    -out "$sweepdir/xval2.json" -no-timing \
    > "$sweepdir/xval2.txt" 2> "$sweepdir/xval2.log"
cmp "$sweepdir/xval1.json" "$sweepdir/xval2.json" || {
    echo "xval: divergence report differs between a fresh parallel run and a cached serial rerun" >&2
    exit 1
}
grep -q "cached" "$sweepdir/xval2.log" || {
    echo "xval: second run did not recall cells from the store" >&2
    cat "$sweepdir/xval2.log" >&2
    exit 1
}
grep -q "cells: 4" "$sweepdir/xval2.txt" || {
    echo "xval: report does not cover the matrix:" >&2
    cat "$sweepdir/xval2.txt" >&2
    exit 1
}

echo "== spscen smoke (builtin specs / generator fuzz / spec replay determinism)"
go build -o "$sweepdir/spscen" ./cmd/spscen
go build -o "$sweepdir/spsim" ./cmd/spsim
"$sweepdir/spscen" validate -builtin
"$sweepdir/spscen" fuzz -n 50 -seed 1
"$sweepdir/spscen" gen -seed 7 > "$sweepdir/fuzz7.json"
"$sweepdir/spsim" -spec "$sweepdir/fuzz7.json" -pred sp > "$sweepdir/spec1.txt"
"$sweepdir/spscen" gen -seed 7 | "$sweepdir/spsim" -spec - -pred sp > "$sweepdir/spec2.txt"
cmp "$sweepdir/spec1.txt" "$sweepdir/spec2.txt" || {
    echo "spscen: generated-spec replay is not deterministic" >&2
    exit 1
}

echo "== run-config gates (unknown kind / bcast kind / unrunnable matrix)"
if "$sweepdir/spsim" -pred bogus -bench x264 -scale 0.05 > /dev/null 2> "$sweepdir/bogus.log"; then
    echo "spsim: -pred bogus ran instead of failing" >&2
    exit 1
fi
"$sweepdir/spsim" -pred bcast -bench x264 -scale 0.05 | grep -q "^x264 " || {
    echo "spsim: -pred bcast did not run" >&2
    exit 1
}
if "$sweepdir/spsweep" run -threads 12 -bench x264 -kinds dir -scales 0.05 \
    -dir "$sweepdir/t12store" -summary "" > /dev/null 2> "$sweepdir/t12.log"; then
    echo "spsweep: a -threads 12 matrix ran" >&2
    exit 1
fi
if [ -e "$sweepdir/t12store" ] || grep -q " jobs (" "$sweepdir/t12.log"; then
    echo "spsweep: a -threads 12 matrix got past validation:" >&2
    cat "$sweepdir/t12.log" >&2
    exit 1
fi

echo "== spstat smoke (metrics series determinism / validate / overhead)"
go build -o "$sweepdir/spstat" ./cmd/spstat
"$sweepdir/spsim" -bench x264 -pred sp -scale 0.05 \
    -metrics-epoch 2000 -metrics-out "$sweepdir/series1.json" \
    > /dev/null 2> "$sweepdir/sim1.log"
"$sweepdir/spsim" -bench x264 -pred sp -scale 0.05 \
    -metrics-epoch 2000 -metrics-out "$sweepdir/series2.json" \
    > /dev/null 2> "$sweepdir/sim2.log"
cmp "$sweepdir/series1.json" "$sweepdir/series2.json" || {
    echo "spstat: same-seed metrics series differ" >&2
    exit 1
}
"$sweepdir/spstat" -validate "$sweepdir/series1.json" | grep -q "valid series" || {
    echo "spstat: series failed validation" >&2
    exit 1
}
"$sweepdir/spstat" -format json "$sweepdir/series1.json" > /dev/null || {
    echo "spstat: series JSON re-emit failed" >&2
    exit 1
}
mkdir -p results
"$sweepdir/spstat" -bench -bench-scale 0.05 -bench-out results/BENCH_metrics.json || {
    echo "spstat: overhead benchmark failed" >&2
    exit 1
}

echo "== bench smoke (compile + run every benchmark once)"
go test -bench=. -benchtime=1x -run='^$' ./... > "$sweepdir/bench.log" 2>&1 || {
    echo "bench smoke failed:" >&2
    cat "$sweepdir/bench.log" >&2
    exit 1
}

echo "== spbench core benchmark (results/BENCH_core.json refresh, rolling-baseline gate)"
go build -o "$sweepdir/spbench" ./cmd/spbench
"$sweepdir/spbench" -core-bench -core-out results/BENCH_core.json -core-gate 50 || {
    echo "spbench: core benchmark failed (or regressed past the rolling-baseline gate)" >&2
    exit 1
}

echo "check.sh: all gates passed"
