#!/usr/bin/env bash
# Distributed-tier integration smoke: build a three-shard snapshot with the
# extract CLI, serve it from two replica groups of two shard-server
# replicas each (every server with an HTTP -metrics-addr), route through
# an extractd -router, and assert the observability surface end to end:
# byte-identical answers, shard-server /metrics counting real requests,
# and a /debug/traces entry whose hops span the router and both replica
# groups with server-reported stage timings. Then hard-kill one replica
# mid-stream and require every subsequent query to keep answering
# byte-identically — the replica kill must cost zero failed queries. A short
# second pass serves a snapshot saved without -shards through one shard
# server and a router, and byte-compares its answer with the first pass's.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
cleanup() {
  kill -9 $(jobs -p) 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/extract" ./cmd/extract
go build -o "$work/extractd" ./cmd/extractd

cat > "$work/stores.xml" <<'EOF'
<stores>
  <store><name>Levis</name><state>Texas</state><city>Houston</city>
    <merchandises>
      <clothes><category>jeans</category><fitting>man</fitting></clothes>
      <clothes><category>jeans</category><fitting>woman</fitting></clothes>
    </merchandises>
  </store>
  <store><name>ESprit</name><state>Texas</state><city>Austin</city>
    <merchandises>
      <clothes><category>outwear</category><fitting>woman</fitting></clothes>
      <clothes><category>shirt</category><fitting>man</fitting></clothes>
    </merchandises>
  </store>
  <store><name>Gap</name><state>Ohio</state><city>Columbus</city>
    <merchandises>
      <clothes><category>jeans</category><fitting>kids</fitting></clothes>
    </merchandises>
  </store>
</stores>
EOF

"$work/extract" -data "$work/stores.xml" -shards 3 -savesnapshot "$work/snap.xtsnap"

# Two replica groups, two replicas each. Placement is rendezvous-hashed
# from the snapshot manifest: with this corpus, group 0 owns two shards
# and group 1 one, so a fanned-out query must touch both groups.
"$work/extractd" -shard-server -snapshot "$work/snap.xtsnap" \
  -shard-group 0 -shard-groups 2 -addr 127.0.0.1:7801 -metrics-addr 127.0.0.1:9801 &
replica_a=$!
"$work/extractd" -shard-server -snapshot "$work/snap.xtsnap" \
  -shard-group 0 -shard-groups 2 -addr 127.0.0.1:7802 -metrics-addr 127.0.0.1:9802 &
"$work/extractd" -shard-server -snapshot "$work/snap.xtsnap" \
  -shard-group 1 -shard-groups 2 -addr 127.0.0.1:7803 -metrics-addr 127.0.0.1:9803 &
"$work/extractd" -shard-server -snapshot "$work/snap.xtsnap" \
  -shard-group 1 -shard-groups 2 -addr 127.0.0.1:7804 -metrics-addr 127.0.0.1:9804 &

wait_port() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&-; return 0; fi
    sleep 0.1
  done
  echo "port $1 never came up" >&2
  return 1
}
for p in 7801 7802 7803 7804 9801 9802 9803 9804; do wait_port "$p"; done

# Shard-server health must name the generation and the owned shards.
health=$(curl -fsS http://127.0.0.1:9801/healthz)
echo "$health" | jq -e '.status == "ok" and (.fingerprint | length == 16) and (.shards_total == 3)' >/dev/null \
  || { echo "shard-server healthz malformed: $health" >&2; exit 1; }

"$work/extractd" -router '127.0.0.1:7801,127.0.0.1:7802;127.0.0.1:7803,127.0.0.1:7804' \
  -snapshot "$work/snap.xtsnap" -addr 127.0.0.1:7800 -slow-query 1ns &

for _ in $(seq 1 100); do
  if curl -fsS http://127.0.0.1:7800/readyz >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS http://127.0.0.1:7800/readyz >/dev/null || { echo "router never became ready" >&2; exit 1; }

query() { curl -fsS 'http://127.0.0.1:7800/?dataset=remote&q=store+texas&bound=6'; }

base=$(query)
echo "$base" | grep -q 'result 1' || { echo "router answered with no results" >&2; exit 1; }
echo "$base" | grep -q 'Levis' || { echo "router answer missing expected key" >&2; exit 1; }
for i in $(seq 1 5); do
  [ "$(query)" = "$base" ] || { echo "router answer $i drifted" >&2; exit 1; }
done

# The shard servers' own /metrics must have counted the evaluations the
# routed queries caused (each group owns shards, so each side of the tier
# evaluated something). Only successful evals count: a sum over every series
# would pass on stats calls or error frames alone.
for p in 9801 9803; do
  total=$(curl -fsS "http://127.0.0.1:$p/metrics" \
    | awk '/^extract_shard_server_requests_total\{kind="eval",outcome="ok"\}/ {sum += $2} END {print sum+0}')
  [ "$total" -gt 0 ] || { echo "shard server :$p evaluated no requests" >&2; exit 1; }
done

# One /debug/traces entry on the router must span the tier: hops naming
# replicas of both groups, each with server-reported stage timings — the
# first computed query is always retained, so the ring cannot be empty.
traces=$(curl -fsS http://127.0.0.1:7800/debug/traces)
echo "$traces" | jq -e '
  .remote | map(select(
    ([.hops[]?.replica | select(test(":780[12]$"))] | length > 0) and
    ([.hops[]?.replica | select(test(":780[34]$"))] | length > 0) and
    ([.hops[]? | select(.server_stages_ms.decode > 0)] | length > 0) and
    (.trace_id | length == 16)
  )) | length > 0' >/dev/null \
  || { echo "no trace spans both replica groups with server stages: $traces" >&2; exit 1; }

# Hard-kill one replica mid-stream: the router must fail over to the peer
# with zero failed queries and byte-identical answers.
kill -9 "$replica_a"
for i in $(seq 1 10); do
  [ "$(query)" = "$base" ] || { echo "query $i failed or drifted after replica kill" >&2; exit 1; }
done

# Second pass: a snapshot saved WITHOUT -shards (one shard, the default) has
# the same layout as any other and must serve through the same tier — one
# shard server, one router over it — with the three-shard pass's answer,
# byte for byte. (This wiring used to log.Fatalf "not a sharded snapshot".)
"$work/extract" -data "$work/stores.xml" -savesnapshot "$work/one.xtsnap"
"$work/extractd" -shard-server -snapshot "$work/one.xtsnap" -addr 127.0.0.1:7811 &
wait_port 7811
"$work/extractd" -router '127.0.0.1:7811' -snapshot "$work/one.xtsnap" -addr 127.0.0.1:7810 &
for _ in $(seq 1 100); do
  if curl -fsS http://127.0.0.1:7810/readyz >/dev/null 2>&1; then break; fi
  sleep 0.1
done
one=$(curl -fsS 'http://127.0.0.1:7810/?dataset=remote&q=store+texas&bound=6')
[ "$one" = "$base" ] || { echo "default-saved (one-shard) snapshot answered differently through the tier" >&2; exit 1; }

echo "distributed integration smoke passed: tracing spans the tier, metrics scraped, replica kill cost zero failed queries, a default-saved snapshot routes identically"
