#!/bin/sh
# check.sh — the repository's CI gate. Chains every static and dynamic
# verification, in cheapest-first order:
#
#   gofmt -l      formatting
#   go vet        stock correctness vet
#   go build      compilation
#   spvet         invariant analysis (internal/lint): maprange, wallclock,
#                 goroutine, floatorder, exhaustive, noalloc, obspure,
#                 poolescape, allow — any error finding fails, plus a -json
#                 smoke asserting zero errors
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
#                 and no //spvet:allow goroutine remains in a sim package);
#                 -short for the orchestration packages, plus
#                 TestRealSimParallelDeterminism unshortened, the one test
#                 driving sweep.Run's worker pool with real simulations at
#                 1-4 workers
#   spsweep smoke quick-scale sweep end to end: run, resume (must recall
#                 every cell from the store), byte-compare the merged
#                 outputs, status must report all cells complete
#   spscen smoke  scenario layer end to end: the embedded profile specs
#                 validate and build, a 50-seed generator fuzz sweep
#                 (validity + determinism + buildability), and a generated
#                 spec piped through spsim -spec twice must render
#                 byte-identically
#   run-config    one configuration table behind every entry point:
#                 spsim -pred bogus must exit non-zero and still leave a
#                 non-empty -cpuprofile, spsim -pred bcast must run, and
#                 spsweep run -threads 12 must be rejected before the store
#                 or any job is touched
#   spstat smoke  metrics pipeline end to end: a small instrumented run
#                 twice (series must be byte-identical), spstat -validate
#                 (epochs monotone/contiguous), JSON decode, and the
#                 collector-overhead benchmark (its record goes to a
#                 temporary directory; commit results/BENCH_metrics.json
#                 on purpose)
#   bench smoke   every testing.B benchmark compiled and run once
#                 (-benchtime=1x) so benchmark code cannot rot
#   speed gate    scripts/abbench.sh: perfbench suite-dir-sp and suite-bcast
#                 for the change and its base, alternately on this host; fails
#                 when a median candidate/base sim_cycles_per_s ratio is
#                 below the script's threshold, or a median peak_rss_mb
#                 ratio is above its memory threshold (DESIGN.md §11). Allocation
#                 regressions are gated by the AllocsPerRun ceilings inside
#                 go test
#
# Any gate failing exits non-zero. Nothing is written into the tree.
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
trap 'rm -rf "$sweepdir"' EXIT

echo "== spvet (invariant analysis)"
go run ./cmd/spvet ./...
go run ./cmd/spvet -json ./... > "$sweepdir/spvet.json"
grep -q '"errors": 0' "$sweepdir/spvet.json" || {
    echo "spvet: -json report has errors:" >&2
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
go test -race -count=1 -run TestRealSimParallelDeterminism ./internal/sweep

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
if "$sweepdir/spsim" -pred bogus -bench x264 -scale 0.05 \
    -cpuprofile "$sweepdir/bogus.pprof" > /dev/null 2> "$sweepdir/bogus.log"; then
    echo "spsim: -pred bogus ran instead of failing" >&2
    exit 1
fi
[ -s "$sweepdir/bogus.pprof" ] || {
    echo "spsim: a failing run left no CPU profile" >&2
    exit 1
}
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
"$sweepdir/spstat" -bench -bench-scale 0.05 -bench-out "$sweepdir/BENCH_metrics.json" || {
    echo "spstat: overhead benchmark failed" >&2
    exit 1
}

echo "== bench smoke (compile + run every benchmark once)"
go test -bench=. -benchtime=1x -run='^$' ./... > "$sweepdir/bench.log" 2>&1 || {
    echo "bench smoke failed:" >&2
    cat "$sweepdir/bench.log" >&2
    exit 1
}

echo "== speed gate (perfbench, change vs base on this host)"
sh scripts/abbench.sh "$sweepdir/abbench.json"

echo "check.sh: all gates passed"
