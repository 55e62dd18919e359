#!/usr/bin/env bash
# Observability smoke test: boot a minimal cluster (coordinator, store,
# cache, LB) with -obs listeners, check every /metrics endpoint serves
# the expected families, run one traced request through the full chain,
# and take one freshctl top sample. CI runs this after the unit tests.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN" ./cmd/coordserver ./cmd/storeserver ./cmd/cacheserver ./cmd/lbserver ./cmd/freshctl

STORE=127.0.0.1:7461
CACHE=127.0.0.1:7462
LB=127.0.0.1:7463
COORD=127.0.0.1:7464
OBS_STORE=127.0.0.1:6461
OBS_CACHE=127.0.0.1:6462
OBS_LB=127.0.0.1:6463
OBS_COORD=127.0.0.1:6464

"$BIN"/coordserver -addr "$COORD" -stores "$STORE" -obs "$OBS_COORD" &
"$BIN"/storeserver -addr "$STORE" -t 200ms -obs "$OBS_STORE" -slowtrace 1ns &
"$BIN"/cacheserver -addr "$CACHE" -store "$STORE" -t 200ms -name smoke -obs "$OBS_CACHE" &
"$BIN"/lbserver -addr "$LB" -store "$STORE" -caches "$CACHE" -obs "$OBS_LB" &

wait_port() {
    for _ in $(seq 1 50); do
        if "$BIN"/freshctl -addr "$1" ping >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $1 never came up" >&2
    exit 1
}
wait_port "$STORE"; wait_port "$CACHE"; wait_port "$LB"; wait_port "$COORD"

# Traffic so the freshness telemetry has samples: a write, a cache-miss
# fill, then fresh hits — plus one batched write and read so the batch
# metric families have samples on every tier.
"$BIN"/freshctl -addr "$LB" put smoke-key hello
for _ in 1 2 3; do "$BIN"/freshctl -addr "$LB" get smoke-key >/dev/null; done
"$BIN"/freshctl -addr "$LB" mput smoke-b1=x smoke-b2=y smoke-b3=z
"$BIN"/freshctl -addr "$LB" mget smoke-b1 smoke-b2 smoke-b3 smoke-ghost >/dev/null

check_metrics() { # name obs-addr family...
    local name=$1 addr=$2; shift 2
    local body
    body=$(curl -fsS "http://$addr/metrics")
    for family in "$@"; do
        if ! grep -q "^$family" <<<"$body"; then
            echo "FAIL: $name /metrics is missing $family" >&2
            echo "$body" | head -40 >&2
            exit 1
        fi
    done
    # Every non-comment line must be "name[{labels}] value".
    if grep -vE '^(# (HELP|TYPE) |[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' <<<"$body" | grep -q .; then
        echo "FAIL: $name /metrics has unparseable lines:" >&2
        grep -vE '^(# (HELP|TYPE) |[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' <<<"$body" >&2
        exit 1
    fi
    echo "ok: $name /metrics ($(grep -c . <<<"$body") lines)"
}

check_metrics store "$OBS_STORE" \
    freshcache_store_gets_total \
    freshcache_store_served_age_ratio_bucket \
    freshcache_store_push_decisions_total \
    'freshcache_store_batch_ops_total{op="mget"}' \
    'freshcache_store_batch_ops_total{op="mput"}' \
    freshcache_store_batch_size_bucket \
    'freshcache_store_flush_dwell_seconds_bucket{edge="leading",' \
    'freshcache_store_flush_dwell_seconds_bucket{edge="cooldown",' \
    freshcache_store_pushes_leading_total \
    freshcache_store_pushes_cooldown_total
check_metrics cache "$OBS_CACHE" \
    freshcache_cache_hits_total \
    freshcache_cache_served_age_ratio_bucket \
    freshcache_cache_deadline_expired_total \
    freshcache_cache_near_miss_serves_total \
    freshcache_cache_fills_deduped_total \
    'freshcache_cache_batch_ops_total{op="mget"}' \
    freshcache_cache_batch_size_bucket
check_metrics lb "$OBS_LB" \
    freshcache_lb_reads_total \
    freshcache_lb_read_rtt_seconds_bucket \
    'freshcache_lb_batch_ops_total{op="mget"}' \
    'freshcache_lb_batch_ops_total{op="mput"}' \
    freshcache_lb_batch_size_bucket
check_metrics coordinator "$OBS_COORD" \
    freshcache_coord_ring_epoch \
    freshcache_coord_is_leader

# One traced round-trip through the LB. The traced PUT lands the key in
# the store only, so the traced GET that follows is a cache miss: the
# fill goes to the store and the hop tree must show all three tiers.
out=$("$BIN"/freshctl -addr "$LB" trace trace-smoke-key probe)
echo "$out"
out=$("$BIN"/freshctl -addr "$LB" trace trace-smoke-key)
echo "$out"
for hop in lb cache:smoke store:; do
    if ! grep -q "$hop" <<<"$out"; then
        echo "FAIL: traced GET is missing the $hop hop" >&2
        exit 1
    fi
done
if ! grep -q "3 hops" <<<"$out"; then
    echo "FAIL: traced cache-miss GET did not record 3 hops" >&2
    exit 1
fi

# freshctl top: one cluster-wide sample across all four obs listeners.
top=$("$BIN"/freshctl -samples 1 top "$OBS_STORE" "$OBS_CACHE" "$OBS_LB" "$OBS_COORD")
grep -q "4/4 nodes up" <<<"$top" || { echo "FAIL: freshctl top did not reach all 4 nodes" >&2; echo "$top" >&2; exit 1; }
grep -q freshcache_ <<<"$top" || { echo "FAIL: freshctl top rendered no families" >&2; exit 1; }
echo "ok: freshctl top"

echo "observability smoke: PASS"
