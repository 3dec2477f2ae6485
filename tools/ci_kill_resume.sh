#!/usr/bin/env bash
# Kill/resume integration check for the guard runtime.
#
# Runs ranycast-chaos against the same scenario and seed:
#   1. uninterrupted                          -> baseline report
#   2. checkpointing, hard-killed mid-run     -> must exit 137, leave a checkpoint
#   3. resumed from that checkpoint           -> must exit 0
# and then byte-compares the resumed report against the baseline. Then the
# self-healing path:
#   4. a fresh kill, the NEWEST checkpoint generation corrupted in place
#      -> resume must quarantine it, fall back to the previous generation
#         and still produce a byte-identical report
#   5. a fresh kill, the newest generation moved over the manifest path and
#      the others deleted -> a bare checkpoint is no chain: resume must
#      exit 2 and leave the file byte-identical
# Also asserts the deadline path: an already-expired --deadline must exit 3
# and mark the report truncated.
#
# FLIGHT_BIN (env, optional): path to ranycast-flight; when set, `verify`
# runs against the corrupted chain and the bare checkpoint (each must exit
# 4) and the healthy journal (must exit 0).
#
# Every run also writes a run journal (--journal). When python3 is
# available the journals are validated too: the killed run's journal must
# be parseable NDJSON covering exactly the completed steps, and the resumed
# journal must carry exactly one "resumed" marker and dedup to the same
# step set as the baseline's. The resumed run additionally exports a
# Chrome trace (--trace-out) checked with check_trace.py.
#
# Usage: ci_kill_resume.sh CHAOS_BINARY SCENARIO_JSON [WORKDIR]
#
# CHAOS_EXTRA_FLAGS (env, optional): extra flags appended to every chaos
# invocation — e.g. "--transient" to run the whole matrix with transient
# convergence recording, whose report section must survive kill/resume
# byte-identically too.
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 CHAOS_BINARY SCENARIO_JSON [WORKDIR]" >&2
  exit 2
fi

CHAOS="$1"
SCENARIO="$2"
WORKDIR="${3:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
TOOLS_DIR="$(cd "$(dirname "$0")" && pwd)"

SIZING=(--stubs 400 --probes 1200 --seed 2023)
read -r -a EXTRA <<< "${CHAOS_EXTRA_FLAGS:-}"
SIZING+=(${EXTRA[@]+"${EXTRA[@]}"})
ABORT_AT=2

fail() { echo "FAIL: $*" >&2; exit 1; }

# journal_steps FILE -> "<distinct chaos_step indexes> <resumed markers>";
# exits non-zero on any unparseable line (the journal is fsync'd at step
# granularity, so even a killed run leaves only whole lines behind).
journal_steps() {
  python3 - "$1" <<'PY'
import json, sys
steps, resumed = set(), 0
with open(sys.argv[1]) as f:
    for n, raw in enumerate(f, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            e = json.loads(raw)
        except json.JSONDecodeError as exc:
            sys.exit(f"{sys.argv[1]}:{n}: invalid journal line: {exc}")
        if e.get("type") == "chaos_step":
            steps.add(e["index"])
        elif e.get("type") == "resumed":
            resumed += 1
print(len(steps), resumed)
PY
}

echo "== 1/6 uninterrupted baseline =="
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/baseline.json" \
  --journal "$WORKDIR/baseline.ndjson" \
  || fail "baseline run exited $?"

echo "== 2/6 checkpointed run, killed after step $ABORT_AT =="
rm -f "$WORKDIR/run.ck" "$WORKDIR/run.ck.g"* "$WORKDIR/run.ndjson"
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/killed.json" \
  --journal "$WORKDIR/run.ndjson" \
  --checkpoint "$WORKDIR/run.ck" --abort-after "$ABORT_AT"
rc=$?
[ "$rc" -eq 137 ] || fail "expected the aborted run to exit 137, got $rc"
[ -s "$WORKDIR/run.ck" ] || fail "no checkpoint left behind after the kill"

if command -v python3 >/dev/null 2>&1; then
  KILLED=$(journal_steps "$WORKDIR/run.ndjson") \
    || fail "killed run's journal is not valid NDJSON"
  [ "$KILLED" = "$ABORT_AT 0" ] \
    || fail "killed journal: expected '$ABORT_AT 0' (steps, resume markers), got '$KILLED'"
  echo "killed journal is valid NDJSON covering exactly $ABORT_AT completed step(s)"
fi

echo "== 3/6 resume from the checkpoint =="
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/resumed.json" \
  --journal "$WORKDIR/run.ndjson" --trace-out "$WORKDIR/run.trace.json" \
  --checkpoint "$WORKDIR/run.ck" --resume \
  || fail "resume exited $?"

cmp "$WORKDIR/baseline.json" "$WORKDIR/resumed.json" \
  || fail "resumed report differs from the uninterrupted baseline"
echo "resumed report is byte-identical to the baseline"

if command -v python3 >/dev/null 2>&1; then
  BASE=$(journal_steps "$WORKDIR/baseline.ndjson") \
    || fail "baseline journal is not valid NDJSON"
  FULL=$(journal_steps "$WORKDIR/run.ndjson") \
    || fail "resumed journal is not valid NDJSON"
  [ "${BASE#* }" = "0" ] || fail "baseline journal has resume markers: $BASE"
  [ "${FULL#* }" = "1" ] \
    || fail "resumed journal: expected exactly one resume marker, got '${FULL#* }'"
  [ "${FULL%% *}" = "${BASE%% *}" ] \
    || fail "resumed journal steps (${FULL%% *}) differ from baseline (${BASE%% *})"
  echo "resumed journal carries one resume marker and the baseline's step set"
  python3 "$TOOLS_DIR/check_trace.py" "$WORKDIR/run.trace.json" \
    || fail "exported trace failed check_trace.py"
fi

echo "== 4/6 corrupt newest generation: quarantine + fallback resume =="
rm -f "$WORKDIR/run2.ck" "$WORKDIR/run2.ck.g"* "$WORKDIR/run2.ndjson"
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/killed2.json" \
  --journal "$WORKDIR/run2.ndjson" \
  --checkpoint "$WORKDIR/run2.ck" --abort-after "$ABORT_AT"
rc=$?
[ "$rc" -eq 137 ] || fail "expected the second aborted run to exit 137, got $rc"

NEWEST_GEN=$(ls "$WORKDIR"/run2.ck.g* 2>/dev/null | sort -V | tail -1)
[ -n "$NEWEST_GEN" ] || fail "no checkpoint generation files found next to run2.ck"
# Flip one payload byte in place (read-modify-write, so the byte is
# guaranteed to change): the envelope CRC must catch it on resume.
cur=$(od -An -tu1 -j40 -N1 "$NEWEST_GEN" | tr -d ' ')
[ -n "$cur" ] || fail "could not read byte 40 of $NEWEST_GEN"
printf "$(printf '\\%03o' $(( (cur + 1) % 256 )))" \
  | dd of="$NEWEST_GEN" bs=1 seek=40 count=1 conv=notrunc status=none \
  || fail "could not corrupt $NEWEST_GEN"

if [ -n "${FLIGHT_BIN:-}" ]; then
  "$FLIGHT_BIN" verify --checkpoint "$WORKDIR/run2.ck"
  rc=$?
  [ "$rc" -eq 4 ] || fail "flight verify on corrupted chain: expected exit 4, got $rc"
  echo "flight verify detected the corrupted generation (exit 4)"
fi

"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/resumed2.json" \
  --journal "$WORKDIR/run2.ndjson" \
  --checkpoint "$WORKDIR/run2.ck" --resume \
  || fail "resume after generation corruption exited $?"

cmp "$WORKDIR/baseline.json" "$WORKDIR/resumed2.json" \
  || fail "fallback-resumed report differs from the uninterrupted baseline"
[ -s "$NEWEST_GEN.quarantined" ] \
  || fail "corrupt generation was not quarantined (expected $NEWEST_GEN.quarantined)"
grep -q '"type":"checkpoint_quarantined"' "$WORKDIR/run2.ndjson" \
  || fail "journal carries no checkpoint_quarantined marker"
echo "corrupt generation quarantined, resume fell back and matches the baseline"

if [ -n "${FLIGHT_BIN:-}" ]; then
  "$FLIGHT_BIN" verify --journal "$WORKDIR/run2.ndjson" \
    || fail "flight verify on the healthy resumed journal exited $?"
  echo "flight verify passed on the resumed journal"
fi

echo "== 5/6 bare checkpoint at the manifest path is refused =="
rm -f "$WORKDIR/run3.ck" "$WORKDIR/run3.ck.g"* "$WORKDIR/run3.bare"
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/killed3.json" \
  --checkpoint "$WORKDIR/run3.ck" --abort-after "$ABORT_AT"
rc=$?
[ "$rc" -eq 137 ] || fail "expected the third aborted run to exit 137, got $rc"
NEWEST_GEN=$(ls "$WORKDIR"/run3.ck.g* 2>/dev/null | sort -V | tail -1)
[ -n "$NEWEST_GEN" ] || fail "no checkpoint generation files found next to run3.ck"
mv "$NEWEST_GEN" "$WORKDIR/run3.ck" || fail "could not move $NEWEST_GEN over run3.ck"
rm -f "$WORKDIR"/run3.ck.g*
cp "$WORKDIR/run3.ck" "$WORKDIR/run3.bare" || fail "could not copy run3.ck"

if [ -n "${FLIGHT_BIN:-}" ]; then
  "$FLIGHT_BIN" verify --checkpoint "$WORKDIR/run3.ck"
  rc=$?
  [ "$rc" -eq 4 ] || fail "flight verify on a bare checkpoint: expected exit 4, got $rc"
  echo "flight verify refused the bare checkpoint (exit 4)"
fi

"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/resumed3.json" \
  --checkpoint "$WORKDIR/run3.ck" --resume
rc=$?
[ "$rc" -eq 2 ] || fail "resume from a bare checkpoint: expected exit 2, got $rc"
cmp "$WORKDIR/run3.bare" "$WORKDIR/run3.ck" \
  || fail "the refused resume changed the bare checkpoint"
echo "bare checkpoint refused (exit 2) and left byte-identical"

echo "== 6/6 expired deadline truncates with exit 3 =="
"$CHAOS" --scenario "$SCENARIO" "${SIZING[@]}" \
  --format json --out "$WORKDIR/truncated.json" --deadline 0.000001
rc=$?
[ "$rc" -eq 3 ] || fail "expected the deadline run to exit 3, got $rc"
grep -q '"truncated": true' "$WORKDIR/truncated.json" \
  || fail "deadline report is not marked truncated"

echo "OK: kill/resume and deadline paths all check out"
