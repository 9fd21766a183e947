#!/bin/sh
# serve-smoke: boot mbserve on an ephemeral port and exercise it end to
# end. Two modes:
#
#   serve-smoke.sh <binary>         normal boot: /healthz, /v1/analyze
#                                   (a repeated and a respelled body
#                                   hit with the first answer's bytes),
#                                   over-cap /v1/sweep refused with
#                                   400, /v1/batch cache hit, async job
#                                   submit → stream → status → cursor
#                                   paging, /metrics
#   serve-smoke.sh <binary> chaos   robustness: boot with -admit 1 and
#                                   no queue, saturate the single
#                                   compute slot with a slow (~6 s)
#                                   real /v1/simulate, assert the
#                                   overflow request is shed with
#                                   429 + Retry-After, then assert the
#                                   server recovers to 200
#
# Used by `make serve-smoke` and `make chaos-smoke`.
set -eu

BIN="${1:?usage: serve-smoke.sh <mbserve binary> [chaos]}"
MODE="${2:-normal}"
LOG="$(mktemp)"
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT INT TERM

case "$MODE" in
normal)
    "$BIN" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
    ;;
chaos)
    # One admission unit and no wait queue: while one computation holds
    # the slot, a second concurrent request MUST be shed.
    "$BIN" -addr 127.0.0.1:0 -admit 1 -queue -1 >"$LOG" 2>&1 &
    ;;
*)
    echo "serve-smoke: unknown mode '$MODE' (want 'chaos' or nothing)"
    exit 2
    ;;
esac
PID=$!

# mbserve logs the resolved listen address (slog text: `msg=listening
# addr=host:port`) so -addr :0 is scriptable.
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "serve-smoke: mbserve exited early:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-smoke: never saw listen address:"; cat "$LOG"; exit 1; }

check() {
    desc="$1"; shift
    status="$(curl -s -o /dev/null -w '%{http_code}' "$@")"
    if [ "$status" != "200" ]; then
        echo "serve-smoke: $desc returned HTTP $status (want 200)"
        exit 1
    fi
    echo "serve-smoke: $desc ok"
}

ANALYZE='{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}'

if [ "$MODE" = "chaos" ]; then
    # Saturate the single admission unit with a slow simulation in the
    # background: 6·10⁶ cycles × 16 processors is 9.6·10⁷
    # processor-cycles, under the 2^28 per-request cap. At the 40–84 ns
    # per processor-cycle measured in DESIGN.md §11 it runs 4–8 s,
    # comfortably longer than the 0.5 s head start below.
    SLOW_BODY='{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0,"sim":{"cycles":6000000,"seed":1}}'
    SLOW_STATUS="$(mktemp)"
    curl -s -o /dev/null -w '%{http_code} %{time_total}\n' -X POST "http://$ADDR/v1/simulate" \
        -d "$SLOW_BODY" >"$SLOW_STATUS" &
    SLOW=$!
    sleep 0.5

    # A second, distinct scenario now finds the slot held and no queue:
    # it must be shed with 429 and a Retry-After hint.
    HDRS="$(curl -s -D - -o /dev/null -X POST "http://$ADDR/v1/analyze" \
        -d '{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":0.9}' \
        | tr -d '\r')"
    STATUS="$(echo "$HDRS" | sed -n 's|^HTTP/[^ ]* \([0-9]*\).*|\1|p' | head -n1)"
    RETRY="$(echo "$HDRS" | sed -n 's/^Retry-After: //p' | head -n1)"
    if [ "$STATUS" != "429" ]; then
        echo "chaos-smoke: overflow request returned HTTP $STATUS (want 429 shed)"
        exit 1
    fi
    case "$RETRY" in
        ''|*[!0-9]*) echo "chaos-smoke: shed response Retry-After = '$RETRY' (want integer seconds)"; exit 1 ;;
    esac
    echo "chaos-smoke: saturated server shed overflow with 429, Retry-After: $RETRY"

    wait "$SLOW"
    read -r SLOW_CODE SLOW_SECS <"$SLOW_STATUS"
    rm -f "$SLOW_STATUS"
    if [ "$SLOW_CODE" != "200" ]; then
        echo "chaos-smoke: slow in-flight request returned HTTP $SLOW_CODE (want 200)"
        exit 1
    fi
    echo "chaos-smoke: slow in-flight simulate answered 200 after ${SLOW_SECS}s"

    # Slot released: a fresh analyze is admitted and served.
    check "recovered POST /v1/analyze" -X POST "http://$ADDR/v1/analyze" -d "$ANALYZE"
    echo "chaos-smoke: PASS"
    exit 0
fi

check "GET /healthz" "http://$ADDR/healthz"
check "POST /v1/analyze" -X POST "http://$ADDR/v1/analyze" -d "$ANALYZE"

# Repeated bodies: the first POST computes, the second is answered by
# its canonical key, the third from the raw-body index. The third must
# say X-Cache: hit and its body cmp equal to the first's; a respelled
# body (fields reordered) hits the same entry with the same bytes.
REPEAT='{"network":{"scheme":"partial","n":16,"b":8},"model":{"kind":"hier"},"r":0.8}'
RESPELLED='{"r":0.8,"model":{"kind":"hier"},"network":{"b":8,"n":16,"scheme":"partial"}}'
FIRST="$(mktemp)"; ANSWER="$(mktemp)"
post_repeat() {
    curl -s -D - -o "$2" -X POST "http://$ADDR/v1/analyze" -d "$1" \
        | tr -d '\r' | sed -n 's/^X-Cache: //p'
}
XC1="$(post_repeat "$REPEAT" "$FIRST")"
post_repeat "$REPEAT" "$ANSWER" >/dev/null
for body in "$REPEAT" "$RESPELLED"; do
    XC="$(post_repeat "$body" "$ANSWER")"
    if [ "$XC1" != "miss" ] || [ "$XC" != "hit" ] || ! cmp -s "$FIRST" "$ANSWER"; then
        echo "serve-smoke: repeated POST /v1/analyze X-Cache $XC1 then $XC (want miss then hit) for $body"
        cat "$FIRST" "$ANSWER"
        rm -f "$FIRST" "$ANSWER"
        exit 1
    fi
done
rm -f "$FIRST" "$ANSWER"
echo "serve-smoke: repeated and respelled POST /v1/analyze hit with the first answer's bytes"

# Grid cap: the api/fixtures/sweep_over_cap.json body (64 ns × 64 bs ×
# 17 rates × "full" = 69632 estimated points, over the 65536-point cap)
# is refused with 400 invalid_request before any work starts.
OVERCAP="$(sed -n 's/^  "body": \(.*\),$/\1/p' "$(dirname "$0")/../api/fixtures/sweep_over_cap.json")"
case "$OVERCAP" in
    '{"ns"'*) ;;
    *) echo "serve-smoke: could not read the body of api/fixtures/sweep_over_cap.json"; exit 1 ;;
esac
OVERCAP_RESP="$(curl -s -w '\n%{http_code}' -X POST "http://$ADDR/v1/sweep" -d "$OVERCAP")"
OVERCAP_STATUS="$(echo "$OVERCAP_RESP" | tail -n1)"
if [ "$OVERCAP_STATUS" != "400" ] || ! echo "$OVERCAP_RESP" | grep -q '"code":"invalid_request"'; then
    echo "serve-smoke: over-cap POST /v1/sweep returned HTTP $OVERCAP_STATUS (want 400 invalid_request)"
    echo "$OVERCAP_RESP" | head -c 500; echo
    exit 1
fi
echo "serve-smoke: over-cap POST /v1/sweep refused with 400 invalid_request"

# Batch endpoint: scenarios the bus-count sweep alone cannot express
# (explicit class sizes, a Das–Bhuyan workload), evaluated twice — the
# repeat must be served entirely from the scenario-keyed cache.
BATCH='{"scenarios":[{"network":{"scheme":"kclass","n":16,"b":4,"classSizes":[2,6,8]},"model":{"kind":"dasbhuyan","q":0.7},"r":1.0},{"network":{"scheme":"full","n":16,"b":8},"model":{"kind":"hier"},"r":1.0}]}'
check "POST /v1/batch" -X POST "http://$ADDR/v1/batch" -d "$BATCH"
XCACHE="$(curl -s -D - -o /dev/null -X POST "http://$ADDR/v1/batch" -d "$BATCH" \
    | tr -d '\r' | sed -n 's/^X-Cache: //p')"
if [ "$XCACHE" != "hit" ]; then
    echo "serve-smoke: repeated POST /v1/batch X-Cache = '$XCACHE' (want hit)"
    exit 1
fi
echo "serve-smoke: repeated POST /v1/batch served from cache"

# Async jobs: submit the sweep as a job (202 + Location), drain its
# NDJSON stream to completion, confirm the status is done, then walk the
# cursor-paged results and check both views agree on the record count.
SWEEP='{"sweep":{"ns":[8,16],"bs":[2,4],"rs":[0.5,1.0],"schemes":["full","single"]}}'
SUBMIT="$(curl -s -D - -X POST "http://$ADDR/v1/jobs" -d "$SWEEP" | tr -d '\r')"
JSTATUS="$(echo "$SUBMIT" | sed -n 's|^HTTP/[^ ]* \([0-9]*\).*|\1|p' | head -n1)"
if [ "$JSTATUS" != "202" ]; then
    echo "serve-smoke: POST /v1/jobs returned HTTP $JSTATUS (want 202)"
    echo "$SUBMIT"
    exit 1
fi
JOB="$(echo "$SUBMIT" | sed -n 's|^Location: /v1/jobs/||p' | head -n1)"
if [ -z "$JOB" ]; then
    echo "serve-smoke: job submit response had no Location header"
    echo "$SUBMIT"
    exit 1
fi
echo "serve-smoke: POST /v1/jobs accepted job $JOB"

# The NDJSON stream replays every result record in grid order and closes
# when the job completes; each record carries a "scheme" key.
STREAMED="$(curl -s "http://$ADDR/v1/jobs/$JOB/stream" | grep -c '"scheme"' || true)"
case "$STREAMED" in
    ''|0) echo "serve-smoke: job stream produced no records"; exit 1 ;;
esac

JOBBODY="$(curl -s "http://$ADDR/v1/jobs/$JOB")"
echo "$JOBBODY" | grep -q '"state":"done"' || {
    echo "serve-smoke: job not done after stream drained: $JOBBODY"
    exit 1
}
COMPLETED="$(echo "$JOBBODY" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')"
if [ "$COMPLETED" != "$STREAMED" ]; then
    echo "serve-smoke: stream delivered $STREAMED records, status says $COMPLETED completed"
    exit 1
fi

# Cursor paging: small pages, following next_cursor until more=false,
# must hand back exactly the streamed record count.
PAGED=0
CURSOR="v1:0"
for _ in $(seq 1 50); do
    PAGE="$(curl -s "http://$ADDR/v1/jobs/$JOB/results?cursor=$CURSOR&limit=5")"
    N="$(echo "$PAGE" | grep -o '"scheme"' | grep -c . || true)"
    PAGED=$((PAGED + N))
    CURSOR="$(echo "$PAGE" | sed -n 's/.*"nextCursor":"\([^"]*\)".*/\1/p')"
    echo "$PAGE" | grep -q '"more":true' || break
done
if [ "$PAGED" != "$STREAMED" ]; then
    echo "serve-smoke: cursor paging returned $PAGED records, stream delivered $STREAMED"
    exit 1
fi
echo "serve-smoke: job $JOB done — $STREAMED records streamed, $PAGED paged"

# /metrics serves Prometheus text exposition, and the traffic above is
# visible in it: a nonzero per-route request counter and the histogram
# TYPE line.
METRICS="$(curl -s "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '^# TYPE mbserve_request_duration_seconds histogram$' || {
    echo "serve-smoke: /metrics missing histogram TYPE line"
    echo "$METRICS" | head -n 20
    exit 1
}
REQS="$(echo "$METRICS" | sed -n 's/^mbserve_requests_total{route="analyze"} //p')"
case "$REQS" in
    ''|0) echo "serve-smoke: /metrics analyze request counter = '$REQS' (want nonzero)"; exit 1 ;;
esac
echo "serve-smoke: GET /metrics reports $REQS analyze request(s)"
echo "$METRICS" | grep 'mbserve_jobs_total{' | grep 'op="sweep"' | grep -q 'state="done"' || {
    echo "serve-smoke: /metrics missing mbserve_jobs_total sweep/done transition"
    echo "$METRICS" | grep mbserve_jobs || true
    exit 1
}
echo "serve-smoke: GET /metrics reports the job's done transition"

echo "serve-smoke: PASS"
