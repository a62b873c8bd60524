#!/usr/bin/env bash
# perf_pairs.sh — the perf/README.md §Comparing protocol for one workload:
# interleaved parent/change runs of the repository benchmark on this host.
#
#   scripts/perf_pairs.sh <parent-ref> <workload> [pairs=10]
#
# The parent is exported from <parent-ref> into a directory under $TMPDIR
# (git archive: nothing is added to this repository's .git), the change is
# the working tree. The benchmark is built once per side; every pair runs
# both sides with -trace 0 and the same -seed and -seconds (SEED, default 1;
# RUN_SECONDS, default 12), alternating which side goes first. Printed: the
# pair-by-pair table, each side's median and quartiles of records_per_s and
# setup_s, the pairs the change won (ties count for neither side) and the
# failed-operation totals. Exit status is non-zero when any run's output
# checks failed.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
  exit 2
fi
PARENT_REF=$1
WORKLOAD=$2
PAIRS=${3:-10}
SEED=${SEED:-1}
RUN_SECONDS=${RUN_SECONDS:-12}

ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/parent"
git -C "$ROOT" archive "$PARENT_REF" | tar -x -C "$WORK/parent"
(cd "$WORK/parent/perf" && go build -o "$WORK/perf_parent" .)
(cd "$ROOT/perf" && go build -o "$WORK/perf_change" .)
echo "perf-pairs: $WORKLOAD, parent $(git -C "$ROOT" rev-parse --short "$PARENT_REF") vs working tree, $PAIRS pairs, seed $SEED, ${RUN_SECONDS}s"

# field <name> <json>: the value of one end-to-end metric in a result line.
field() { sed -n "s/.*\"$1\":{\"value\":\([-0-9.e+]*\).*/\1/p" <<<"$2"; }

BAD=0
# run_side <side>: one benchmark run; appends "records_per_s setup_s failed"
# to the side's file. A run whose output checks failed still gets a row.
run_side() {
  local side=$1 out rc=0 line
  out=$(cd "$WORK" && "./perf_$side" -workload "$WORKLOAD" -trace 0 -seed "$SEED" -seconds "$RUN_SECONDS") || rc=$?
  line=$(grep '^{"correct"' <<<"$out" | tail -1 || true)
  if [ "$rc" -ne 0 ] || [[ "$line" != '{"correct":true,'* ]]; then
    BAD=$((BAD + 1))
    echo "perf-pairs: $side run failed its output checks (exit $rc)" >&2
    printf '%s\n' "$out" | tail -5 >&2
  fi
  echo "$(field records_per_s "$line") $(field setup_s "$line") $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")" >>"$WORK/$side.txt"
}

for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent
    run_side change
  else
    run_side change
    run_side parent
  fi
  echo "pair $i: parent $(tail -1 "$WORK/parent.txt" | cut -d' ' -f1,2)  change $(tail -1 "$WORK/change.txt" | cut -d' ' -f1,2)"
done

paste -d' ' "$WORK/parent.txt" "$WORK/change.txt" | awk '
function quantile(a, n, p,    x, lo) {
  x = (n - 1) * p + 1; lo = int(x)
  return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo + 1] - a[lo])
}
function summary(name, v, n,    a, i) {
  for (i = 1; i <= n; i++) a[i] = v[i]
  asort_num(a, n)
  return sprintf("%-8s median %-10.5g quartiles [%.5g, %.5g]", name, quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
}
function asort_num(a, n,    i, j, t) {
  for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
{
  n++
  prps[n] = $1; pset[n] = $2; pfail += $3
  crps[n] = $4; cset[n] = $5; cfail += $6
  if ($4 > $1) rpswins++; else if ($4 < $1) rpslosses++
  if ($5 < $2) setwins++; else if ($5 > $2) setlosses++
  printf "%4d  %12.5g %12.5g  %+7.1f%%   %10.5g %10.5g  %+7.1f%%\n", n, $1, $4, 100 * ($4 / $1 - 1), $2, $5, 100 * ($5 / $2 - 1)
}
BEGIN { printf "pair  parent rec/s change rec/s     delta   parent set change set     delta\n" }
END {
  print ""
  print "records_per_s (1/s, higher is better)"
  print "  " summary("parent", prps, n)
  print "  " summary("change", crps, n)
  printf "  change won %d of %d pairs, lost %d\n", rpswins, n, rpslosses
  print "setup_s (s, lower is better)"
  print "  " summary("parent", pset, n)
  print "  " summary("change", cset, n)
  printf "  change won %d of %d pairs, lost %d\n", setwins, n, setlosses
  printf "failed operations: parent %d, change %d\n", pfail, cfail
}'

if [ "$BAD" -ne 0 ]; then
  echo "perf-pairs: $BAD run(s) failed their output checks" >&2
  exit 1
fi
