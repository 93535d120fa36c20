#!/usr/bin/env bash
# Same-runner A/B gate on simulator throughput. Builds perfbench from a
# base commit (checked out in a temporary git worktree) and from this
# working tree, then runs the two in interleaved pairs on this machine:
# for each simulator workload and seed 1..PAIRS, one base run and one
# change run with the same seed, the side that goes first alternating
# from pair to pair. Comparing the two sides on one runner, pair by
# pair, cancels what the host contributes to absolute numbers.
#
#   bash scripts/perf_ab.sh <base-commit>
#
# Fails if any run is not "correct":true with "failed":0 (every cell
# matches that side's perfbench/golden.json), or if on either workload
# the median over pairs of sim_kips(change) / sim_kips(base) is below
# BOUND. Writes the per-pair table to perf_ab.tsv in the current
# directory, with each run's set-up time (setup_s: the single-thread
# reference runs) beside its sim_kips, and prints the median setup_s
# ratio per workload. The setup_s columns are reported only; they never
# fail the gate.
set -euo pipefail

readonly PAIRS=8
readonly RUN_SECONDS=3
readonly BOUND=0.90
readonly WORKLOADS=(sim-membound sim-busy)
readonly TABLE=perf_ab.tsv

base=${1:?usage: perf_ab.sh <base-commit>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base-src" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/base-src" "$base"
# run.sh builds into $(pwd)/.bench_build, so each side gets its own
# working directory and the two binaries never overwrite each other.
mkdir -p "$tmp/base" "$tmp/change"
declare -A script=([base]="$tmp/base-src/perfbench/run.sh" [change]="$root/perfbench/run.sh")

# run SIDE WORKLOAD SEED prints the run's sim_kips and setup_s separated
# by a tab, or fails with the run's output when it errored or was not
# correct.
run() {
  local side=$1 w=$2 seed=$3 line
  if ! line=$(cd "$tmp/$side" && bash "${script[$side]}" --workload "$w" --seed "$seed" \
    --seconds "$RUN_SECONDS" --trace 0 2>>"$tmp/$side.log" | tail -n 1); then
    echo "perf_ab: $side $w seed $seed: perfbench failed:" >&2
    tail -n 20 "$tmp/$side.log" >&2
    return 1
  fi
  if ! jq -e '.correct == true and .failed == 0' >/dev/null 2>&1 <<<"$line"; then
    echo "perf_ab: $side $w seed $seed: want \"correct\":true and \"failed\":0, got: $line" >&2
    return 1
  fi
  jq -r '"\(.metrics.sim_kips.value)\t\(.metrics.setup_s.value)"' <<<"$line"
}

# median_of prints the median of its arguments.
median_of() {
  printf '%s\n' "$@" | jq -s 'sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2'
}

printf 'workload\tseed\tfirst\tbase_kips\tchange_kips\tratio\tbase_setup_s\tchange_setup_s\n' >"$TABLE"
status=0
for w in "${WORKLOADS[@]}"; do
  ratios=()
  setup_ratios=()
  for ((seed = 1; seed <= PAIRS; seed++)); do
    if ((seed % 2)); then
      first=base
      base_out=$(run base "$w" "$seed")
      change_out=$(run change "$w" "$seed")
    else
      first=change
      change_out=$(run change "$w" "$seed")
      base_out=$(run base "$w" "$seed")
    fi
    read -r b bs <<<"$base_out"
    read -r c cs <<<"$change_out"
    r=$(jq -n "$c / $b")
    ratios+=("$r")
    setup_ratios+=("$(jq -n "$cs / $bs")")
    printf '%s\t%d\t%s\t%s\t%s\t%.4f\t%s\t%s\n' "$w" "$seed" "$first" "$b" "$c" "$r" "$bs" "$cs" | tee -a "$TABLE"
  done
  printf 'perf_ab: %s: median setup_s ratio %.4f (report only)\n' "$w" "$(median_of "${setup_ratios[@]}")"
  median=$(median_of "${ratios[@]}")
  if jq -e -n "$median < $BOUND" >/dev/null; then
    printf 'perf_ab: %s: median sim_kips ratio %.4f is below %.2f\n' "$w" "$median" "$BOUND" >&2
    status=1
  else
    printf 'perf_ab: %s: median sim_kips ratio %.4f (bound %.2f)\n' "$w" "$median" "$BOUND"
  fi
done
exit "$status"
