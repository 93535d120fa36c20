#!/usr/bin/env bash
# Smoke test for the simd cluster, run by CI and usable locally:
#   ./scripts/smoke_cluster.sh
# Boots three workers plus a coordinator over them, drives a Zipf-shaped
# load with cmd/simdload, and asserts:
#   - every request succeeds and repeats hit the content-addressed cache
#   - exactly one worker simulated each distinct spec (sharding works)
#   - a worker asked directly for another shard's key answers from peer
#     cache fill without re-simulating
#   - a node added via POST /v1/members mid-sweep joins the ring, every
#     worker's ring follows, and placement repair leaves every cached
#     key on at least R=2 live workers
#   - after fresh specs simulate on that 4-member ring and the new node
#     is removed again gracefully, it and the other workers repair
#     placement so every key is on at least 2 of the remaining members
#   - a worker killed with SIGKILL is routed around: the fleet keeps
#     answering and the coordinator marks the node dead
#   - after the membership changes and the primary's death, a repeat
#     sweep's cache-hit ratio does not regress (replication + placement
#     repair mean the dead node's keys are still served without
#     re-simulating)
#   - a second coordinator over the same member list serves a job
#     submitted through the first (status poll to done, /events), since
#     job IDs name their worker; after the first coordinator is
#     SIGKILLed, a sweep through the second passes the load gate
#   - the load summaries pass the checkbench load gate
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE="${CLUSTER_PORT_BASE:-18972}"
BINDIR="$(mktemp -d)"
CACHE_ROOT="$(mktemp -d)"
LOAD_JSON="$BINDIR/load.json"
go build -o "$BINDIR/simd" ./cmd/simd
go build -o "$BINDIR/simdload" ./cmd/simdload
go build -o "$BINDIR/checkbench" ./cmd/checkbench

W0="http://127.0.0.1:$PORT_BASE"
W1="http://127.0.0.1:$((PORT_BASE + 1))"
W2="http://127.0.0.1:$((PORT_BASE + 2))"
PEERS="$W0,$W1,$W2"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "==> boot 3 workers ($PEERS)"
for i in 0 1 2; do
  "$BINDIR/simd" -addr "127.0.0.1:$((PORT_BASE + i))" -cache-dir "$CACHE_ROOT/w$i" \
    -workers 2 -peers "$PEERS" >"$BINDIR/worker$i.log" 2>&1 &
  PIDS+=($!)
  eval "WPID$i=$!"
done

echo "==> boot coordinator (:0, scraped from stdout)"
COUT="$BINDIR/coord.out"
# -hedge-min is cranked up so slow-CI latency can't fire hedges and
# double-simulate specs: this smoke asserts exact simulation counts.
"$BINDIR/simd" -coordinator -peers "$PEERS" -addr 127.0.0.1:0 \
  -hedge-min 30s -hedge-max 30s >"$COUT" 2>"$BINDIR/coord.log" &
COORD_PID=$!
PIDS+=($COORD_PID)
for _ in $(seq 1 100); do
  grep -q 'listening on' "$COUT" 2>/dev/null && break
  sleep 0.1
done
COORD="http://$(awk '/listening on/ {print $NF; exit}' "$COUT")"

for url in "$W0" "$W1" "$W2" "$COORD"; do
  for _ in $(seq 1 50); do
    curl -fsS "$url/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "$url/healthz" >/dev/null
done

echo "==> zipf load through the coordinator"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD_JSON"

echo "==> load summary passes the checkbench gate"
"$BINDIR/checkbench" -min-rps 1 "$LOAD_JSON"

echo "==> cache hits dominate (8 distinct specs, 120 requests)"
# Concurrent duplicates that coalesce onto an in-flight job report
# "miss" too, so the floor is loose; the exact dedup invariant is the
# fleet-wide simulation count below.
HITS=$(jq .cache_hits "$LOAD_JSON")
[ "$HITS" -ge 60 ] || { echo "only $HITS cache hits"; cat "$LOAD_JSON"; exit 1; }

echo "==> sharding: fleet-wide simulations == distinct specs"
FLEET=$(curl -fsS "$COORD/v1/fleet")
SIMS=$(echo "$FLEET" | jq .totals.simulations)
[ "$SIMS" -eq 8 ] || { echo "fleet simulated $SIMS times for 8 specs"; echo "$FLEET" | jq .; exit 1; }

echo "==> peer cache fill: every worker serves shard 0's key without re-simulating"
# cmd/simdload derives spec seeds as loadgen_seed*1000003 + i; spec 0 of
# the default seed is therefore reproducible here.
SPEC0='{"scheme":"rrob","mixes":["Mix 1"],"budget":3000,"seed":1000003}'
for url in "$W0" "$W1" "$W2"; do
  R=$(curl -fsS -X POST "$url/v1/runs?wait=1" -d "$SPEC0")
  echo "$R" | jq -e '.cache == "hit"' >/dev/null \
    || { echo "direct submit to $url was not served from cache: $R"; exit 1; }
done
SIMS=$(curl -fsS "$COORD/v1/fleet" | jq .totals.simulations)
[ "$SIMS" -eq 8 ] || { echo "peer fill re-simulated: fleet total now $SIMS"; exit 1; }
FILLS=$(curl -fsS "$COORD/v1/fleet" | jq '[.nodes[].stats.PeerFillHits] | add')
[ "$FILLS" -ge 1 ] || { echo "no peer fill recorded"; exit 1; }

echo "==> membership: add a 4th worker mid-sweep"
W3="http://127.0.0.1:$((PORT_BASE + 3))"
"$BINDIR/simd" -addr "127.0.0.1:$((PORT_BASE + 3))" -cache-dir "$CACHE_ROOT/w3" \
  -workers 2 -peers "$PEERS,$W3" >"$BINDIR/worker3.log" 2>&1 &
PIDS+=($!)
for _ in $(seq 1 50); do
  curl -fsS "$W3/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$W3/healthz" >/dev/null
# The add lands while this sweep is in flight: requests must keep
# succeeding across the ring change.
LOAD2_JSON="$BINDIR/load2.json"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD2_JSON" &
SWEEP2=$!
R=$(curl -fsS -X POST "$COORD/v1/members" -d "{\"action\":\"add\",\"node\":\"$W3\"}")
echo "$R" | jq -e '.changed == true' >/dev/null \
  || { echo "member add did not change the ring: $R"; exit 1; }
wait "$SWEEP2"
"$BINDIR/checkbench" -min-rps 1 "$LOAD2_JSON"
N_MEMBERS=$(curl -fsS "$COORD/v1/members" | jq '.members | length')
[ "$N_MEMBERS" -eq 4 ] || { echo "coordinator reports $N_MEMBERS members, want 4"; exit 1; }
for url in "$W0" "$W1" "$W2" "$W3"; do
  N=$(curl -fsS "$url/v1/members" | jq '.members | length')
  [ "$N" -eq 4 ] || { echo "$url reports $N members, want 4"; exit 1; }
done

# check_placement fails unless every key cached on a current member is
# held by at least R=2 of the members. Repair pushes run off the request
# path, so they get a moment to land.
check_placement() {
  local members under
  members=$(curl -fsS "$COORD/v1/members" | jq -r '.members[]')
  for _ in $(seq 1 50); do
    under=$(for url in $members; do curl -fsS "$url/v1/cache" | jq -r '(.keys // [])[]'; done \
      | sort | uniq -c | awk '$1 < 2' | wc -l)
    [ "$under" -eq 0 ] && return 0
    sleep 0.2
  done
  echo "$under cached keys are held by fewer than 2 of: $members"
  return 1
}

echo "==> fresh specs simulate on the 4-member ring"
# These keys are placed with W3 as one of their owners, so removing W3
# below leaves them short of R unless W3 and its co-holder push them on.
LOAD_NEW_JSON="$BINDIR/load_new.json"
"$BINDIR/simdload" -url "$COORD" -seed 2 -n 60 -c 8 -tenants 4 -specs 16 -budget 3000 -json "$LOAD_NEW_JSON"
"$BINDIR/checkbench" -min-rps 1 "$LOAD_NEW_JSON"

echo "==> placement: every cached key is held by at least R=2 live workers"
check_placement

echo "==> membership: gracefully remove the 4th worker, placement repairs"
R=$(curl -fsS -X POST "$COORD/v1/members" -d "{\"action\":\"remove\",\"node\":\"$W3\"}")
echo "$R" | jq -e '.changed == true and (.members | length) == 3' >/dev/null \
  || { echo "member remove did not change the ring: $R"; exit 1; }
check_placement

echo "==> chaos: SIGKILL an old primary, fleet keeps answering"
kill -9 "$WPID0"
for seed in 99 101 102 103; do
  R=$(curl -fsS -X POST "$COORD/v1/runs?wait=1" \
    -d "{\"scheme\":\"rrob\",\"mixes\":[\"Mix 2\"],\"budget\":3000,\"seed\":$seed}")
  echo "$R" | jq -e '.status == "done"' >/dev/null \
    || { echo "post-kill submission failed: $R"; exit 1; }
done
# The health prober needs a cycle or two to notice the corpse.
for _ in $(seq 1 100); do
  ALIVE=$(curl -fsS "$COORD/metrics" | awk '/^simd_cluster_nodes_alive/ {print $2}')
  [ "${ALIVE:-4}" -le 3 ] && break
  sleep 0.2
done
[ "${ALIVE:-4}" -le 3 ] || { echo "dead node still counted alive ($ALIVE)"; exit 1; }

echo "==> hit ratio survives the membership change + primary death"
# Replication (R=2) plus placement repair mean every key the dead worker held is
# still served from a live replica: a repeat of the original sweep must
# hit the cache at least as often as the first pass did.
RATE1=$(jq .cache_hit_rate "$LOAD_JSON")
LOAD3_JSON="$BINDIR/load3.json"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD3_JSON"
"$BINDIR/checkbench" -min-rps 1 -min-hit-rate "$RATE1" "$LOAD3_JSON"

echo "==> a second coordinator serves jobs submitted through the first"
MEMBERS=$(curl -fsS "$COORD/v1/members" | jq -r '.members | join(",")')
COUT2="$BINDIR/coord2.out"
"$BINDIR/simd" -coordinator -peers "$MEMBERS" -addr 127.0.0.1:0 \
  -hedge-min 30s -hedge-max 30s >"$COUT2" 2>"$BINDIR/coord2.log" &
PIDS+=($!)
for _ in $(seq 1 100); do
  grep -q 'listening on' "$COUT2" 2>/dev/null && break
  sleep 0.1
done
COORD2="http://$(awk '/listening on/ {print $NF; exit}' "$COUT2")"
for _ in $(seq 1 50); do
  curl -fsS "$COORD2/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
# A never-seen spec, so the async submit is a miss and returns a job ID.
ID=$(curl -fsS -X POST "$COORD/v1/runs" \
  -d '{"scheme":"prob","mixes":["Mix 3"],"budget":3000,"seed":424242}' | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || { echo "async submit via $COORD returned no job id"; exit 1; }
for _ in $(seq 1 100); do
  STATUS=$(curl -fsS "$COORD2/v1/runs/$ID" | jq -r .status || true)
  [ "$STATUS" = done ] && break
  sleep 0.2
done
[ "$STATUS" = done ] || { echo "job $ID polled via $COORD2 ended as $STATUS"; exit 1; }
curl -fsS "$COORD2/v1/runs/$ID/events" | tail -n 1 | jq -e '.type == "done"' >/dev/null \
  || { echo "event stream via $COORD2 did not end in done"; exit 1; }

echo "==> SIGKILL the first coordinator, the second keeps serving"
kill -9 "$COORD_PID"
LOAD4_JSON="$BINDIR/load4.json"
"$BINDIR/simdload" -url "$COORD2" -n 60 -c 8 -tenants 4 -specs 8 -budget 3000 -json "$LOAD4_JSON"
"$BINDIR/checkbench" -min-rps 1 "$LOAD4_JSON"

echo "OK"
