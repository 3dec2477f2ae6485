#!/usr/bin/env bash
# SIGKILL/restart soak for the serving plane (ranycast-serve drive).
#
# For each worker count in {1, 2, hw} the same faulted drive (a seeded
# serve::FaultPlan storm: failed + stalled builds, slow queries, clock skew)
# is run four ways:
#   1. uninterrupted                      -> baseline answer stream + journal
#   2. killed after a tick checkpoint     -> exit 137, resume, compare
#   3. killed INSIDE the epoch swap, before the publish (--abort-at
#      pre_publish)                       -> exit 137, resume, compare
#   4. killed INSIDE the epoch swap, just after the publish (--abort-at
#      post_publish)                      -> exit 137, resume, compare
# Every resumed answer stream must be byte-identical to the baseline: a
# kill anywhere — including between a finished build and its publish —
# never yields a torn snapshot or a diverged answer. Worker counts must
# also agree with each other (the snapshot build is order-independent).
#
# The journals are then checked: the resumed journal carries exactly one
# "resumed" marker and its deduped serve_ladder transition set must equal
# the baseline's — the degradation ladder's history survives crash-restart.
#
# A drifting-world pass follows at 1 and hw workers: the served world
# drifts through configs/chaos_cascade.json, without the storm so the build
# timing is fixed. Killed after tick 30, the published epoch carries events
# 1-3 (measurement_degrade among them): the resume must fast-forward the
# world and restore the epoch's lost pings, and its answers must equal an
# uninterrupted run's.
#
# Finally the overload gate: a drive offering 2x the admission capacity
# must keep the served p99 inside the deadline budget and surface the
# excess as shed queries in the serve_summary journal line.
#
# FLIGHT_BIN (env, optional): when set, `flight verify` must pass on the
# resumed journal + checkpoint chain.
#
# Usage: ci_serve_soak.sh SERVE_BINARY [WORKDIR]
set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 SERVE_BINARY [WORKDIR]" >&2
  exit 2
fi

SERVE="$1"
WORKDIR="${2:-$(mktemp -d)}"
mkdir -p "$WORKDIR"

HW=$(nproc 2>/dev/null || echo 4)
THREAD_COUNTS="1 2 $HW"

# The soak profile: a storm seed chosen to exercise the whole ladder
# (failed builds, stalled builds into Stale, recovery back to Fresh) while
# still publishing several epochs to abort inside.
PROFILE=(drive --stubs 400 --probes 1200 --seed 2023
  --ticks 100 --fault-intensity 0.9 --fault-seed 41)

# The drifting-world profile: no storm, one scenario event per build.
DRIFT=(drive --stubs 400 --probes 1200 --seed 2023
  --ticks 100 --scenario "$(dirname "$0")/../configs/chaos_cascade.json")

fail() { echo "FAIL: $*" >&2; exit 1; }

# ladder_fingerprint JOURNAL -> "<resume markers> <deduped transition set hash>"
ladder_fingerprint() {
  python3 - "$1" <<'PY'
import hashlib, json, sys
resumed, transitions = 0, set()
with open(sys.argv[1]) as f:
    for n, raw in enumerate(f, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            e = json.loads(raw)
        except json.JSONDecodeError as exc:
            sys.exit(f"{sys.argv[1]}:{n}: invalid journal line: {exc}")
        if e.get("type") == "resumed":
            resumed += 1
        elif e.get("type") == "serve_ladder":
            transitions.add((e["at_ns"], e["from"], e["to"], e["reason"]))
if not transitions:
    sys.exit(f"{sys.argv[1]}: no serve_ladder transitions journaled")
digest = hashlib.sha256(repr(sorted(transitions)).encode()).hexdigest()[:16]
print(resumed, digest)
PY
}

run_soak_for_threads() {
  local T="$1"
  local D="$WORKDIR/t$T"
  mkdir -p "$D"
  export RANYCAST_THREADS="$T"

  echo "== [$T workers] baseline =="
  "$SERVE" "${PROFILE[@]}" \
    --answers "$D/base.csv" --journal "$D/base.ndjson" \
    || fail "[$T] baseline exited $?"
  [ -s "$D/base.csv" ] || fail "[$T] baseline produced no answers"

  local n=0
  for KILL in "--abort-after 13" \
              "--abort-at pre_publish --abort-epoch 3" \
              "--abort-at post_publish --abort-epoch 5"; do
    n=$((n + 1))
    local R="$D/kill$n"
    echo "== [$T workers] kill $n/3 ($KILL) =="
    rm -f "$R.ck" "$R.ck.g"* "$R.ndjson" "$R.csv"
    # shellcheck disable=SC2086  # $KILL is deliberately two tokens
    "$SERVE" "${PROFILE[@]}" \
      --answers "$R.csv" --journal "$R.ndjson" --checkpoint "$R.ck" \
      $KILL
    rc=$?
    [ "$rc" -eq 137 ] || fail "[$T] kill $n: expected exit 137, got $rc"
    [ -s "$R.ck" ] || fail "[$T] kill $n left no checkpoint behind"

    "$SERVE" "${PROFILE[@]}" \
      --answers "$R.csv" --journal "$R.ndjson" --checkpoint "$R.ck" --resume \
      || fail "[$T] resume $n exited $?"
    cmp "$D/base.csv" "$R.csv" \
      || fail "[$T] kill $n: resumed answers differ from the baseline"
  done
  echo "[$T workers] all 3 kill points resumed byte-identically"

  if command -v python3 >/dev/null 2>&1; then
    local BASE RES
    BASE=$(ladder_fingerprint "$D/base.ndjson") \
      || fail "[$T] baseline journal invalid"
    RES=$(ladder_fingerprint "$D/kill3.ndjson") \
      || fail "[$T] resumed journal invalid"
    [ "${BASE%% *}" = "0" ] || fail "[$T] baseline journal has resume markers"
    [ "${RES%% *}" = "1" ] \
      || fail "[$T] resumed journal: expected one resume marker, got '${RES%% *}'"
    [ "${BASE#* }" = "${RES#* }" ] \
      || fail "[$T] resumed ladder history differs from baseline"
    echo "[$T workers] journaled ladder transitions survive crash-restart"
  fi

  if [ -n "${FLIGHT_BIN:-}" ]; then
    "$FLIGHT_BIN" verify --journal "$D/kill3.ndjson" --checkpoint "$D/kill3.ck" \
      || fail "[$T] flight verify on resumed journal/chain exited $?"
    echo "[$T workers] flight verify passed"
  fi
}

# last_epoch_events JOURNAL -> world events of the last published epoch
last_epoch_events() {
  python3 - "$1" <<'PY'
import json, sys
events = None
with open(sys.argv[1]) as f:
    for raw in f:
        e = json.loads(raw)
        if e.get("type") == "serve_epoch":
            events = e["world_events"]
print(events)
PY
}

run_drift_for_threads() {
  local T="$1"
  local D="$WORKDIR/drift_t$T"
  mkdir -p "$D"
  export RANYCAST_THREADS="$T"

  echo "== [$T workers] drifting world: baseline =="
  "$SERVE" "${DRIFT[@]}" --answers "$D/base.csv" \
    || fail "[$T] drifting baseline exited $?"
  [ -s "$D/base.csv" ] || fail "[$T] drifting baseline produced no answers"

  echo "== [$T workers] drifting world: kill after tick 30, resume =="
  rm -f "$D/kill.ck" "$D/kill.ck.g"* "$D/kill.ndjson" "$D/kill.csv"
  "$SERVE" "${DRIFT[@]}" --answers "$D/kill.csv" --journal "$D/kill.ndjson" \
    --checkpoint "$D/kill.ck" --abort-after 30
  rc=$?
  [ "$rc" -eq 137 ] || fail "[$T] drifting kill: expected exit 137, got $rc"
  if command -v python3 >/dev/null 2>&1; then
    local EVENTS
    EVENTS=$(last_epoch_events "$D/kill.ndjson") || fail "[$T] drifting journal invalid"
    [ "$EVENTS" = "3" ] \
      || fail "[$T] drifting kill: published epoch carries $EVENTS world events, want 3"
  fi
  "$SERVE" "${DRIFT[@]}" --answers "$D/kill.csv" --journal "$D/kill.ndjson" \
    --checkpoint "$D/kill.ck" --resume \
    || fail "[$T] drifting resume exited $?"
  cmp "$D/base.csv" "$D/kill.csv" \
    || fail "[$T] drifting world: resumed answers differ from the baseline"
  echo "[$T workers] drifting world resumed byte-identically"
}

for T in $THREAD_COUNTS; do
  run_soak_for_threads "$T"
done

for T in 1 "$HW"; do
  run_drift_for_threads "$T"
done
cmp "$WORKDIR/drift_t1/base.csv" "$WORKDIR/drift_t$HW/base.csv" \
  || fail "drifting answers with $HW workers differ from 1 worker"

echo "== worker counts agree =="
for T in $THREAD_COUNTS; do
  cmp "$WORKDIR/t1/base.csv" "$WORKDIR/t$T/base.csv" \
    || fail "answers with $T workers differ from 1 worker"
done
echo "answer streams are identical across worker counts"

echo "== 2x overload holds the deadline budget =="
export RANYCAST_THREADS=2
"$SERVE" drive --stubs 400 --probes 1200 --seed 2023 \
  --ticks 500 --tick-ns 2000000 --queries-per-tick 8 \
  --service-us 500 --queue-depth 4 --qps 100000 --burst 100000 \
  --budget-us 2000 --refresh-ns 2000000000 --build-ns 1000000 \
  --fresh-ns 4000000000 --journal "$WORKDIR/overload.ndjson" \
  || fail "overload run exited $?"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORKDIR/overload.ndjson" <<'PY' || exit 1
import json, sys
summary = None
with open(sys.argv[1]) as f:
    for raw in f:
        e = json.loads(raw)
        if e.get("type") == "serve_summary":
            summary = e
if summary is None:
    sys.exit("FAIL: overload journal has no serve_summary")
shed = summary["shed_queue"] + summary["shed_deadline"] + summary["shed_rate"]
if shed == 0:
    sys.exit("FAIL: 2x overload shed nothing — admission control is asleep")
if summary["p99_us"] > 2000:
    sys.exit(f"FAIL: served p99 {summary['p99_us']}us exceeds the 2000us budget")
served = summary["served"]
if not (0.3 <= served / summary["queries"] <= 0.7):
    sys.exit(f"FAIL: served share {served}/{summary['queries']} is not ~capacity/offered")
print(f"overload: {served}/{summary['queries']} served, {shed} shed, "
      f"p99 {summary['p99_us']}us <= 2000us budget")
PY
fi

echo "OK: serve soak passed (3 kill points x {$THREAD_COUNTS} workers, drifting-world resume, ladder journal, 2x overload)"
