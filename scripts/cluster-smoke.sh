#!/bin/sh
# cluster-smoke: boot a three-peer mbserve cluster plus a standalone
# reference instance, then assert the cluster-mode invariants end to
# end:
#
#   - instances signal readiness on /readyz (the liveness/readiness split)
#   - a forwarded request answers 200, and repeating it on the same
#     instance is an X-Cache: hit with a byte-identical body
#   - the same request on every instance returns byte-identical bodies
#   - a small simulate on every instance is byte-identical to the
#     standalone instance's
#   - peer 1's partitioned /v1/sweep merge is byte-for-byte identical
#     to the standalone instance's sweep
#   - peer traffic is visible in mbserve_peer_requests_total
#   - right after a hard kill, fresh keys (at least one owned by the dead
#     peer) still answer 200, byte-identical to the standalone instance
#   - a hard-killed peer is probed, evicted, and visible in
#     mbserve_membership_peers{state="evicted"}; restarted with -join it
#     re-enters the ring, turns ready, and answers every pre-death
#     request byte-identically
#   - ready means announced: the moment a restarted peer's /readyz
#     answers 200, both other members already list all three alive
#   - a -peers instance stopped with SIGTERM leaves (state="left" on the
#     others) and, restarted with its same flags, is listed alive again
#
# Used by `make cluster-smoke` (part of `make check`).
set -eu

BIN="${1:?usage: cluster-smoke.sh <mbserve binary>}"
WORK="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT INT TERM

# Standalone reference instance on an ephemeral port.
"$BIN" -addr 127.0.0.1:0 >"$WORK/ref.log" 2>&1 &
PIDS="$PIDS $!"
REF=""
for _ in $(seq 1 50); do
    REF="$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$WORK/ref.log" | head -n1)"
    [ -n "$REF" ] && break
    sleep 0.1
done
[ -n "$REF" ] || { echo "cluster-smoke: standalone never listened:"; cat "$WORK/ref.log"; exit 1; }

# The peer list must exist before any instance boots, so the cluster
# needs fixed ports: derive a base from the PID and retry on collision.
ATTEMPT=0
BOOTED=""
while [ -z "$BOOTED" ] && [ "$ATTEMPT" -lt 5 ]; do
    BASE=$((20000 + ($$ + ATTEMPT * 1111) % 20000))
    P1="http://127.0.0.1:$BASE"
    P2="http://127.0.0.1:$((BASE + 1))"
    P3="http://127.0.0.1:$((BASE + 2))"
    PEERS="$P1,$P2,$P3"
    CPIDS=""
    i=0
    for SELF in "$P1" "$P2" "$P3"; do
        "$BIN" -addr "127.0.0.1:$((BASE + i))" -self "$SELF" -peers "$PEERS" \
            >"$WORK/peer$i.log" 2>&1 &
        CPIDS="$CPIDS $!"
        i=$((i + 1))
    done
    BOOTED=ok
    for _ in $(seq 1 50); do
        UP=0
        for SELF in "$P1" "$P2" "$P3"; do
            if curl -sf -o /dev/null "$SELF/readyz" 2>/dev/null; then UP=$((UP + 1)); fi
        done
        [ "$UP" = 3 ] && break
        ALIVE=0
        for p in $CPIDS; do kill -0 "$p" 2>/dev/null && ALIVE=$((ALIVE + 1)); done
        if [ "$ALIVE" != 3 ]; then BOOTED=""; break; fi
        sleep 0.1
    done
    if [ "$BOOTED" = ok ] && [ "${UP:-0}" != 3 ]; then BOOTED=""; fi
    if [ -z "$BOOTED" ]; then
        # Port collision (or boot failure): kill survivors and rebase.
        for p in $CPIDS; do kill "$p" 2>/dev/null || true; done
        ATTEMPT=$((ATTEMPT + 1))
    else
        PIDS="$PIDS $CPIDS"
    fi
done
[ -n "$BOOTED" ] || { echo "cluster-smoke: could not boot 3 peers:"; cat "$WORK"/peer*.log; exit 1; }
echo "cluster-smoke: 3 peers up at $PEERS"

# members SELF STATE prints SELF's mbserve_membership_peers{state=STATE}.
members() {
    curl -s "$1/metrics" | sed -n "s/^mbserve_membership_peers{state=\"$2\"} //p"
}

# all_alive SELF... fails unless every SELF lists all three members
# alive and none evicted or left. One scrape each, no polling: it runs
# right after a restarted peer turned ready, which follows its join
# announcement to every member it knows.
all_alive() {
    for S in "$@"; do
        A="$(members "$S" alive)" E="$(members "$S" evicted)" L="$(members "$S" left)"
        [ "$A" = 3 ] && [ "$E" = 0 ] && [ "$L" = 0 ] || {
            echo "cluster-smoke: $S lists alive=$A evicted=$E left=$L, want 3/0/0"
            return 1
        }
    done
}

ANALYZE='{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}'

# The same scenario through every instance: all 200, all byte-identical
# (wherever the key's owner is, forwarding and local fallback must agree).
i=0
for SELF in "$P1" "$P2" "$P3"; do
    STATUS="$(curl -s -o "$WORK/body$i" -w '%{http_code}' -X POST "$SELF/v1/analyze" -d "$ANALYZE")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: analyze via $SELF returned $STATUS"; exit 1; }
    i=$((i + 1))
done
cmp -s "$WORK/body0" "$WORK/body1" && cmp -s "$WORK/body1" "$WORK/body2" || {
    echo "cluster-smoke: analyze bodies differ across instances"
    exit 1
}
echo "cluster-smoke: analyze byte-identical across all 3 instances"

# A small simulation through every instance: the two non-owners forward
# it, and every answer must match the standalone instance's bytes.
SIMULATE='{"network":{"scheme":"full","n":8,"b":4},"model":{"kind":"hier"},"r":0.5,"sim":{"cycles":2000,"seed":3}}'
STATUS="$(curl -s -o "$WORK/sim-ref" -w '%{http_code}' -X POST "http://$REF/v1/simulate" -d "$SIMULATE")"
[ "$STATUS" = 200 ] || { echo "cluster-smoke: standalone simulate returned $STATUS"; exit 1; }
i=0
for SELF in "$P1" "$P2" "$P3"; do
    STATUS="$(curl -s -o "$WORK/sim$i" -w '%{http_code}' -X POST "$SELF/v1/simulate" -d "$SIMULATE")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: simulate via $SELF returned $STATUS"; exit 1; }
    cmp -s "$WORK/sim-ref" "$WORK/sim$i" || { echo "cluster-smoke: simulate via $SELF differs from standalone"; exit 1; }
    i=$((i + 1))
done
echo "cluster-smoke: simulate byte-identical to standalone on all 3 instances"

# Repeat on one instance: after the first (possibly forwarded) answer
# was cached locally, the repeat must be a local X-Cache hit with the
# same bytes.
HDRS="$(curl -s -D - -o "$WORK/repeat" -X POST "$P2/v1/analyze" -d "$ANALYZE" | tr -d '\r')"
XCACHE="$(echo "$HDRS" | sed -n 's/^X-Cache: //p' | head -n1)"
[ "$XCACHE" = hit ] || { echo "cluster-smoke: repeated analyze X-Cache = '$XCACHE' (want hit)"; exit 1; }
cmp -s "$WORK/body1" "$WORK/repeat" || { echo "cluster-smoke: repeat body differs from original"; exit 1; }
echo "cluster-smoke: forwarded repeat served as local cache hit, byte-identical"

# Partitioned sweep: peer 1 coordinates it (any instance does), and its
# merged grid must equal the standalone instance's response byte for
# byte.
SWEEP='{"ns":[4,8,16],"bs":[1,2,4],"rs":[0.25,0.5,1.0],"schemes":["full","single","crossbar"],"hierarchical":true}'
STATUS="$(curl -s -o "$WORK/sweep-ref" -w '%{http_code}' -X POST "http://$REF/v1/sweep" -d "$SWEEP")"
[ "$STATUS" = 200 ] || { echo "cluster-smoke: standalone sweep returned $STATUS"; exit 1; }
STATUS="$(curl -s -o "$WORK/sweep-coord" -w '%{http_code}' -X POST "$P1/v1/sweep" -d "$SWEEP")"
[ "$STATUS" = 200 ] || { echo "cluster-smoke: coordinator sweep returned $STATUS"; exit 1; }
cmp -s "$WORK/sweep-ref" "$WORK/sweep-coord" || {
    echo "cluster-smoke: coordinator sweep differs from standalone"
    exit 1
}
echo "cluster-smoke: partitioned sweep byte-identical to standalone"

# The work above must have crossed the wire: some instance counted a
# successful peer forward.
OK=0
for SELF in "$P1" "$P2" "$P3"; do
    N="$(curl -s "$SELF/metrics" | grep -c '^mbserve_peer_requests_total{.*result="ok"' || true)"
    OK=$((OK + N))
done
[ "$OK" -ge 1 ] || { echo "cluster-smoke: no successful peer forwards in /metrics"; exit 1; }
echo "cluster-smoke: peer forwarding visible in mbserve_peer_requests_total"

# --- elastic membership: kill -> evict -> rejoin ---

# Answer a spread of keys through P1 before the kill; some of them are
# owned by the victim.
i=1
while [ "$i" -le 15 ]; do
    R="$(awk "BEGIN{printf \"%g\", $i/20}")"
    WARM="{\"network\":{\"scheme\":\"full\",\"n\":16,\"b\":8},\"model\":{\"kind\":\"hier\"},\"r\":$R}"
    STATUS="$(curl -s -o "$WORK/warm$i" -w '%{http_code}' -X POST "$P1/v1/analyze" -d "$WARM")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: warm analyze r=$R returned $STATUS"; exit 1; }
    i=$((i + 1))
done

# Hard-kill peer 3 (no graceful leave): the survivors' probers must
# suspect, confirm, and evict it from the ring.
P3PID="$(echo $PIDS | awk '{print $NF}')"
kill -9 "$P3PID" 2>/dev/null || true

# Before eviction the dead peer still owns its keys: keys nobody has
# computed yet, posted through P2, must answer 200 and match the
# standalone instance byte for byte, whether P2 forwarded them to a
# survivor, computed them itself, or fell back after a failed forward.
# At least 10 keys go out; if none of them was owned by the dead peer
# (no failed forward on P2), more follow, up to 40, until one was.
dead_forwards() {
    curl -s "$P2/metrics" | grep "^mbserve_peer_requests_total{peer=\"$P3\",result=\"error\"}" |
        awk '{s += $NF} END {print s + 0}'
}
FAILED=0
i=1
while [ "$i" -le 10 ] || { [ "$i" -le 40 ] && [ "$FAILED" = 0 ]; }; do
    R="$(awk "BEGIN{printf \"%g\", $i/40}")"
    FRESH="{\"network\":{\"scheme\":\"full\",\"n\":12,\"b\":6},\"model\":{\"kind\":\"hier\"},\"r\":$R}"
    STATUS="$(curl -s -o "$WORK/fresh$i" -w '%{http_code}' -X POST "$P2/v1/analyze" -d "$FRESH")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: post-kill analyze r=$R returned $STATUS"; exit 1; }
    STATUS="$(curl -s -o "$WORK/fresh-ref$i" -w '%{http_code}' -X POST "http://$REF/v1/analyze" -d "$FRESH")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: standalone analyze r=$R returned $STATUS"; exit 1; }
    cmp -s "$WORK/fresh$i" "$WORK/fresh-ref$i" || { echo "cluster-smoke: post-kill answer for r=$R differs from standalone"; exit 1; }
    [ "$i" -ge 10 ] && FAILED="$(dead_forwards)"
    i=$((i + 1))
done
[ "$FAILED" -ge 1 ] || { echo "cluster-smoke: none of $((i - 1)) fresh keys was forwarded to the dead peer"; exit 1; }
echo "cluster-smoke: $((i - 1)) fresh keys after the kill byte-identical to standalone ($FAILED failed forwards to the dead peer)"

EVICTED=""
for _ in $(seq 1 120); do
    V="$(curl -s "$P1/metrics" | sed -n 's/^mbserve_membership_peers{state="evicted"} //p')"
    [ "$V" = 1 ] && { EVICTED=ok; break; }
    sleep 0.25
done
[ -n "$EVICTED" ] || {
    echo "cluster-smoke: killed peer never evicted on $P1:"
    curl -s "$P1/metrics" | grep '^mbserve_membership_peers' || true
    exit 1
}
echo "cluster-smoke: killed peer evicted (mbserve_membership_peers{state=\"evicted\"} = 1)"

# Restart it fresh on the same address, joining through P1: it adopts
# the membership, announces itself, and turns ready.
"$BIN" -addr "127.0.0.1:$((BASE + 2))" -self "$P3" -join "$P1" >"$WORK/peer2b.log" 2>&1 &
PIDS="$PIDS $!"
READY=""
for _ in $(seq 1 100); do
    if curl -sf -o /dev/null "$P3/readyz" 2>/dev/null; then READY=ok; break; fi
    sleep 0.1
done
[ -n "$READY" ] || { echo "cluster-smoke: rejoined peer never became ready:"; cat "$WORK/peer2b.log"; exit 1; }
all_alive "$P1" "$P2"
echo "cluster-smoke: killed peer rejoined via -join, is ready, and both others list it alive"

# Repeat the keys on the rejoined peer: every answer must be
# byte-identical to the pre-death one, whether it recomputes a key it
# owns again or forwards it.
i=1
while [ "$i" -le 15 ]; do
    R="$(awk "BEGIN{printf \"%g\", $i/20}")"
    WARM="{\"network\":{\"scheme\":\"full\",\"n\":16,\"b\":8},\"model\":{\"kind\":\"hier\"},\"r\":$R}"
    STATUS="$(curl -s -o "$WORK/rewarm$i" -w '%{http_code}' -X POST "$P3/v1/analyze" -d "$WARM")"
    [ "$STATUS" = 200 ] || { echo "cluster-smoke: post-rejoin analyze r=$R returned $STATUS"; exit 1; }
    cmp -s "$WORK/warm$i" "$WORK/rewarm$i" || { echo "cluster-smoke: post-rejoin answer for r=$R differs from the pre-death one"; exit 1; }
    i=$((i + 1))
done
echo "cluster-smoke: all 15 post-rejoin answers byte-identical to the pre-death ones"

# --- graceful restart: SIGTERM -> left -> restart with the same flags ---

# Stop P2 gracefully: it announces its leave, drains, and logs "stopped".
P2PID="$(echo $CPIDS | awk '{print $2}')"
kill -TERM "$P2PID"
STOPPED=""
for _ in $(seq 1 150); do
    grep -q 'msg=stopped' "$WORK/peer1.log" && { STOPPED=ok; break; }
    sleep 0.1
done
[ -n "$STOPPED" ] || { echo "cluster-smoke: SIGTERMed peer never stopped:"; cat "$WORK/peer1.log"; exit 1; }
wait "$P2PID" || { echo "cluster-smoke: SIGTERMed peer exited non-zero:"; cat "$WORK/peer1.log"; exit 1; }
for S in "$P1" "$P3"; do
    L="$(members "$S" left)"
    [ "$L" = 1 ] || { echo "cluster-smoke: $S lists left=$L after P2's SIGTERM, want 1"; exit 1; }
done
echo "cluster-smoke: SIGTERMed peer left (mbserve_membership_peers{state=\"left\"} = 1 on both others)"

# Restart it with its same -peers flags, not -join: it must announce
# its own join, so both others list it alive once it is ready.
"$BIN" -addr "127.0.0.1:$((BASE + 1))" -self "$P2" -peers "$PEERS" >"$WORK/peer1b.log" 2>&1 &
PIDS="$PIDS $!"
READY=""
for _ in $(seq 1 100); do
    if curl -sf -o /dev/null "$P2/readyz" 2>/dev/null; then READY=ok; break; fi
    sleep 0.1
done
[ -n "$READY" ] || { echo "cluster-smoke: restarted peer never became ready:"; cat "$WORK/peer1b.log"; exit 1; }
all_alive "$P1" "$P3"
echo "cluster-smoke: gracefully restarted -peers instance is ready and listed alive by both others"

echo "cluster-smoke: PASS"
