#!/bin/sh
# abbench.sh — the speed gate: the change under review against its base,
# run alternately on one host.
#
#   scripts/abbench.sh OUT
#
# The base is HEAD when the working tree differs from it (`git status
# --porcelain` lists modified, staged or untracked files; ignored files do
# not count) and HEAD~1 when it is clean, so it is always the parent of the
# change under review, also for a change made only of new files; it is
# exported with `git archive` into a temporary directory. The candidate is
# the working tree. For each workload, `pairs` pairs of
#
#   bash perfbench/run.sh --workload W --seed 42 --seconds 1 --trace 0
#
# run base and candidate back to back, alternating which side goes first,
# each side building into its own CARGO_TARGET_DIR under the temporary
# directory. Every run must report "correct":true and "failed":0 (perfbench
# exits 0 on wrong output, so the check is here). The JSON record written to
# OUT holds the host's nproc, both revisions, each pair's sim_cycles_per_s,
# peak_rss_mb and setup_s, both medians, the base's quartiles, the median
# ratios, the thresholds and the verdict. The gate fails (exit 1) when any
# workload's median candidate/base ratio of sim_cycles_per_s is below
# `threshold`, or its median candidate/base ratio of peak_rss_mb is above
# `rss_threshold` (the peak_rss_mb bound of BENCHMARK.json); DESIGN.md §11
# says how they were set. setup_s is reported only: no threshold reads it.
set -eu

pairs=5
threshold=0.88
rss_threshold=1.15
# suite-dir-sp runs the directory and SP cells, suite-bcast broadcast
# snooping: together every protocol path the paper's figures time.
# mesh16-sharded runs the directory on the 16x16 mesh, where per-tile
# state, directory tables and long routes weigh most and a slowdown can
# hide from the 4x4 suites.
workloads="suite-dir-sp suite-bcast mesh16-sharded"

[ $# -eq 1 ] || { echo "usage: $0 OUT" >&2; exit 2; }
case $1 in
/*) out=$1 ;;
*) out=$(pwd)/$1 ;;
esac
cd "$(dirname "$0")/.."

head=$(git rev-parse --verify HEAD) || {
    echo "abbench: needs a git checkout with a commit" >&2
    exit 2
}
if [ -z "$(git status --porcelain)" ]; then
    base=HEAD~1 cand=$head
else
    base=HEAD cand=$head+uncommitted
fi
base=$(git rev-parse --verify "$base^{commit}") || {
    echo "abbench: no base revision to compare against" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# bench SIDE DIR WORKLOAD runs perfbench once from DIR and prints its
# sim_cycles_per_s, peak_rss_mb and setup_s, or fails on a failed run,
# wrong output or failed cells.
bench() {
    log="$tmp/$1-$3.log"
    (cd "$2" && CARGO_TARGET_DIR="$tmp/$1-build" \
        bash perfbench/run.sh --workload "$3" --seed 42 --seconds 1 --trace 0) \
        > "$log" 2>&1 || {
        echo "abbench: $1 run of $3 failed:" >&2
        tail -n 20 "$log" >&2
        return 1
    }
    rec=$(grep '^{"correct"' "$log" | tail -n 1)
    case $rec in
    # perfbench marshals its metrics map with sorted keys.
    *'"correct":true,'*'"failed":0,'*'"peak_rss_mb":{"value":'*'"setup_s":{"value":'*'"sim_cycles_per_s":{"value":'*) ;;
    *)
        echo "abbench: $1 run of $3 is not correct or failed cells:" >&2
        tail -n 20 "$log" >&2
        return 1
        ;;
    esac
    cyc=$(printf '%s\n' "$rec" | sed -n 's/.*"sim_cycles_per_s":{"value":\([^,}]*\).*/\1/p')
    rss=$(printf '%s\n' "$rec" | sed -n 's/.*"peak_rss_mb":{"value":\([^,}]*\).*/\1/p')
    setup=$(printf '%s\n' "$rec" | sed -n 's/.*"setup_s":{"value":\([^,}]*\).*/\1/p')
    echo "$cyc $rss $setup"
}

verdict=pass
sep=""
{
    printf '{\n  "host": {"nproc": %s},\n' "$(getconf _NPROCESSORS_ONLN)"
    printf '  "base": "%s",\n  "candidate": "%s",\n' "$base" "$cand"
    printf '  "metric": "sim_cycles_per_s",\n  "pairs": %s,\n  "threshold": %s,\n' "$pairs" "$threshold"
    printf '  "rss_metric": "peak_rss_mb",\n  "rss_threshold": %s,\n' "$rss_threshold"
    printf '  "workloads": ['
} > "$tmp/record"
for w in $workloads; do
    : > "$tmp/$w.pairs"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            b=$(bench base "$tmp/base" "$w")
            c=$(bench candidate . "$w")
        else
            c=$(bench candidate . "$w")
            b=$(bench base "$tmp/base" "$w")
        fi
        echo "abbench: $w pair $i: base $b candidate $c (cycles/s MB s)" >&2
        echo "$b $c" >> "$tmp/$w.pairs"
        i=$((i + 1))
    done
    # The workload's JSON object goes to stdout; awk exits 1 when the
    # workload fails. Quantiles interpolate linearly between order statistics.
    # Columns: base cycles/s, MB and setup s, then the candidate's.
    awk -v w="$w" -v th="$threshold" -v rth="$rss_threshold" '
        function q(a, n, p,    h, l) {
            h = 1 + (n - 1) * p; l = int(h)
            return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
        }
        function isort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        { n++; b[n] = $1; bm[n] = $2; bs[n] = $3; c[n] = $4; cm[n] = $5; cs[n] = $6
          r[n] = $4 / $1; rm[n] = $5 / $2; rs[n] = $6 / $3
          pr = pr sprintf("%s\n        {\"base\": %s, \"candidate\": %s, \"ratio\": %.4f, \"base_rss_mb\": %s, \"candidate_rss_mb\": %s, \"rss_ratio\": %.4f, \"base_setup_s\": %s, \"candidate_setup_s\": %s, \"setup_ratio\": %.4f}",
              n > 1 ? "," : "", $1, $4, r[n], $2, $5, rm[n], $3, $6, rs[n]) }
        END {
            isort(b, n); isort(c, n); isort(r, n); isort(bm, n); isort(cm, n); isort(rm, n)
            isort(bs, n); isort(cs, n); isort(rs, n)
            mr = q(r, n, 0.5); mrm = q(rm, n, 0.5); ok = mr >= th && mrm <= rth
            printf "    {\"workload\": \"%s\",\n      \"pairs\": [%s\n      ],\n", w, pr
            printf "      \"base_median\": %.0f, \"base_q1\": %.0f, \"base_q3\": %.0f,\n", q(b, n, 0.5), q(b, n, 0.25), q(b, n, 0.75)
            printf "      \"candidate_median\": %.0f, \"median_ratio\": %.4f,\n", q(c, n, 0.5), mr
            printf "      \"base_rss_median\": %.1f, \"candidate_rss_median\": %.1f, \"rss_median_ratio\": %.4f,\n", q(bm, n, 0.5), q(cm, n, 0.5), mrm
            printf "      \"base_setup_median\": %.4f, \"candidate_setup_median\": %.4f, \"setup_median_ratio\": %.4f, \"pass\": %s}",
                q(bs, n, 0.5), q(cs, n, 0.5), q(rs, n, 0.5), ok ? "true" : "false"
            printf "abbench: %s median candidate/base %.4f (threshold %s), peak_rss_mb %.4f (threshold %s), setup_s %.4f (reported only)\n", w, mr, th, mrm, rth, q(rs, n, 0.5) > "/dev/stderr"
            exit !ok
        }' "$tmp/$w.pairs" > "$tmp/$w.json" || verdict=fail
    printf '%s\n' "$sep" >> "$tmp/record"
    cat "$tmp/$w.json" >> "$tmp/record"
    sep=","
done
printf '\n  ],\n  "verdict": "%s"\n}\n' "$verdict" >> "$tmp/record"
cp "$tmp/record" "$out"

if [ "$verdict" != pass ]; then
    echo "abbench: candidate is slower than base $base beyond the threshold $threshold, or uses more memory beyond $rss_threshold (record: $out)" >&2
    exit 1
fi
echo "abbench: pass against base $base (record: $out)" >&2
