#!/usr/bin/env bash
# Mutant matrix for the run-time gates. Each patch under scripts/mutants/
# seeds one bug at a real site, of a kind one of the repository's
# conventions rules out (an allocation per simulated cycle, an unsorted
# map range into output, an untracked goroutine, an open response body,
# blocking under a lock). The script checks out HEAD in a temporary git
# worktree, applies each patch in turn, runs every gate over the mutant
# and prints a markdown table: one row per mutant, one column per gate,
# "caught" where the gate failed on all three runs.
#
#   bash scripts/mutants.sh
#
# Gates, in column order:
#   - vet:       go vet ./...
#   - test:      go test ./... (leakcheck included);
#   - race:      go test -race on each mutated package;
#   - slowcheck: go test -tags slowcheck ./internal/pipeline/...;
#   - fuzz:      each fuzz target of a mutated package for 15 s.
# staticcheck and govulncheck are not run. A cell caught on some runs
# but not all prints as k/N and counts as an escape. Passing test
# results may come from go's test cache (the worktree path is fixed for
# the whole invocation); failures are never cached, so a cache hit can
# only turn a flaky catch into an escape, never the reverse. Per-gate
# failure excerpts go to stderr.
#
# A patch that no longer applies to HEAD fails the script before any
# gate runs. Not a CI step: three runs take about two hours on two
# cores.
set -euo pipefail

runs=3
root=$(git rev-parse --show-toplevel)
patches=("$root"/scripts/mutants/*.patch)
tmp=$(mktemp -d)
wt=$tmp/src
cleanup() {
  git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$wt" HEAD
cd "$wt"
for p in "${patches[@]}"; do
  if ! git apply --check "$p" 2>/dev/null; then
    echo "mutants: $(basename "$p") no longer applies to HEAD" >&2
    exit 1
  fi
done

gates=(vet test race slowcheck fuzz)

# gate NAME CMD... runs one gate; a non-zero exit marks NAME caught in
# this run and prints the failure lines to stderr.
gate() {
  local name=$1 log=$tmp/gate.log
  shift
  if "$@" >"$log" 2>&1; then
    return 0
  fi
  caught[$name]=1
  {
    echo "  $name: $*"
    grep -E -m 6 -e '--- FAIL|^panic:|^fatal error|leakcheck:|DATA RACE|timed out|^FAIL|: [^ ]+\.go:[0-9]+' "$log" | sed 's/^/    /' || true
  } >&2
}

declare -A hits caught
for ((run = 1; run <= runs; run++)); do
  for p in "${patches[@]}"; do
    m=$(basename "$p" .patch)
    echo "mutants: run $run/$runs: $m" >&2
    git apply "$p"
    mapfile -t pkgs < <(git diff --name-only | xargs -n1 dirname | sort -u | sed 's|^|./|')
    caught=()
    gate vet go vet ./...
    gate test go test -timeout 120s ./...
    for pkg in "${pkgs[@]}"; do
      # The pipeline's race run alone takes over two minutes.
      limit=150s
      [[ $pkg == ./internal/pipeline ]] && limit=400s
      gate race go test -race -timeout "$limit" "$pkg"
      for f in $(grep -ho '^func Fuzz[A-Za-z0-9_]*' "$pkg"/*_test.go 2>/dev/null | cut -c6-); do
        gate fuzz go test -run '^$' -fuzz "^$f\$" -fuzztime 15s "$pkg"
      done
    done
    gate slowcheck go test -timeout 120s -tags slowcheck ./internal/pipeline/...

    for g in "${gates[@]}"; do
      [[ -n ${caught[$g]:-} ]] && hits[$m.$g]=$((${hits[$m.$g]:-0} + 1))
    done
    git checkout --quiet -- .
    git clean -fdq
  done
done

printf '| mutant |'
printf ' %s |' "${gates[@]}"
printf '\n|---|'
printf -- '---|%.0s' "${gates[@]}"
printf '\n'
for p in "${patches[@]}"; do
  m=$(basename "$p" .patch)
  printf '| `%s` |' "$m"
  for g in "${gates[@]}"; do
    n=${hits[$m.$g]:-0}
    if ((n == runs)); then
      printf ' caught |'
    elif ((n > 0)); then
      printf ' %d/%d |' "$n" "$runs"
    else
      printf ' — |'
    fi
  done
  printf '\n'
done
