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
# matches that side's perfbench/golden.json), or if on either simulator
# workload the median over pairs of sim_kips(change) / sim_kips(base) is
# below BOUND. The fleet-zipf workload (a closed loop through a
# coordinator and two simd workers, where only cache misses simulate)
# runs the same interleaved pairs after them, report only. Writes the
# per-pair table to perf_ab.tsv in the current directory: each run's
# sim_kips, set-up time (setup_s: the single-thread reference runs), rps,
# p50_ms and peak_rss_mb. Prints the median sim_kips ratio per workload,
# and the median setup_s and peak_rss_mb ratios, plus rps and p50_ms
# ratios for fleet-zipf. Next to each median it prints how many pairs
# moved the good way (for example "8/8 pairs faster"), so a claimed gain
# can be read from the gate's own output. Only the simulator workloads'
# sim_kips ratios can fail the gate.
set -euo pipefail

readonly PAIRS=8
readonly RUN_SECONDS=3
readonly BOUND=0.90
readonly WORKLOADS=(sim-membound sim-busy)
readonly REPORT_WORKLOADS=(fleet-zipf)
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

# run SIDE WORKLOAD SEED prints the run's sim_kips, setup_s, rps, p50_ms
# and peak_rss_mb separated by tabs, or fails with the run's output when it
# errored or was not correct.
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
  jq -r '[.metrics.sim_kips, .metrics.setup_s, .metrics.rps, .metrics.p50_ms, .metrics.peak_rss_mb] | map(.value) | @tsv' <<<"$line"
}

# median_of prints the median of its arguments.
median_of() {
  printf '%s\n' "$@" | jq -s 'sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2'
}

# pairs_better higher|lower RATIO... prints "K/N", where K counts the
# ratios above 1 (higher is better) or below 1 (lower is better).
pairs_better() {
  local dir=$1
  shift
  printf '%s\n' "$@" | jq -rs --arg dir "$dir" \
    '"\(map(select(if $dir == "higher" then . > 1 else . < 1 end)) | length)/\(length)"'
}

# ratio_of NUMERATOR DENOMINATOR prints their quotient.
ratio_of() {
  jq -n "$1 / $2"
}

printf 'workload\tseed\tfirst\tbase_kips\tchange_kips\tratio\tbase_setup_s\tchange_setup_s\tbase_rps\tchange_rps\tbase_p50_ms\tchange_p50_ms\tbase_peak_rss_mb\tchange_peak_rss_mb\n' >"$TABLE"
status=0
for w in "${WORKLOADS[@]}" "${REPORT_WORKLOADS[@]}"; do
  ratios=()
  setup_ratios=()
  rps_ratios=()
  p50_ratios=()
  rss_ratios=()
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
    read -r b bs brps bp50 brss <<<"$base_out"
    read -r c cs crps cp50 crss <<<"$change_out"
    r=$(ratio_of "$c" "$b")
    ratios+=("$r")
    setup_ratios+=("$(ratio_of "$cs" "$bs")")
    rps_ratios+=("$(ratio_of "$crps" "$brps")")
    p50_ratios+=("$(ratio_of "$cp50" "$bp50")")
    rss_ratios+=("$(ratio_of "$crss" "$brss")")
    printf '%s\t%d\t%s\t%s\t%s\t%.4f\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$w" "$seed" "$first" "$b" "$c" "$r" "$bs" "$cs" \
      "$brps" "$crps" "$bp50" "$cp50" "$brss" "$crss" | tee -a "$TABLE"
  done
  printf 'perf_ab: %s: median setup_s ratio %.4f, %s pairs faster (report only)\n' "$w" \
    "$(median_of "${setup_ratios[@]}")" "$(pairs_better lower "${setup_ratios[@]}")"
  printf 'perf_ab: %s: median peak_rss_mb ratio %.4f, %s pairs lower (report only)\n' "$w" \
    "$(median_of "${rss_ratios[@]}")" "$(pairs_better lower "${rss_ratios[@]}")"
  median=$(median_of "${ratios[@]}")
  faster=$(pairs_better higher "${ratios[@]}")
  if [[ " ${REPORT_WORKLOADS[*]} " == *" $w "* ]]; then
    printf 'perf_ab: %s: median rps ratio %.4f, %s pairs higher; p50_ms ratio %.4f, %s pairs lower (report only)\n' "$w" \
      "$(median_of "${rps_ratios[@]}")" "$(pairs_better higher "${rps_ratios[@]}")" \
      "$(median_of "${p50_ratios[@]}")" "$(pairs_better lower "${p50_ratios[@]}")"
    printf 'perf_ab: %s: median sim_kips ratio %.4f, %s pairs faster (report only)\n' "$w" "$median" "$faster"
  elif jq -e -n "$median < $BOUND" >/dev/null; then
    printf 'perf_ab: %s: median sim_kips ratio %.4f, %s pairs faster, is below %.2f\n' "$w" "$median" "$faster" "$BOUND" >&2
    status=1
  else
    printf 'perf_ab: %s: median sim_kips ratio %.4f, %s pairs faster (bound %.2f)\n' "$w" "$median" "$faster" "$BOUND"
  fi
done
exit "$status"
