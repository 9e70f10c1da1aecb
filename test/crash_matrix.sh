#!/usr/bin/env bash
# Crash-equivalence matrix for checkpoint/resume (make test-crash).
#
# Campaign half: run the fig1 sweep under EWALK_FAULT_SPEC=kill-trial:K for
# every checkpoint boundary K (every journaled trial), resume each killed
# campaign, and require the resumed CSV to be byte-identical to an
# undisturbed run — at --jobs 1 and --jobs 4.  Every kill runs with the
# flight recorder armed (EWALK_FLIGHT_DIR): each kill-point must leave a
# flight.jsonl post-mortem that `eproc verify-trace --flight` accepts, and
# a cleanly completed run must leave none.
#
# Trace half: checkpoint a single walk, cut it off mid-run, resume from the
# snapshot, and require (a) verify-trace to accept both streams and (b) the
# resumed tail to be byte-identical to the corresponding tail of the
# uninterrupted stream.  Corrupted snapshots must be rejected with exit 2.
#
# Kernel half: the same kill-and-resume discipline for a W=4 lockstep run
# (one shared visited set, "kernel" snapshots) — cut at every checkpoint
# boundary, resume, and require the resumed step stream to be
# byte-identical to the uninterrupted run's tail.
#
# Competing half: the same matrix for a W=4 competing run (one visited set
# per walker, "kernel-competing" snapshots); its --metrics must count
# blue_steps + red_steps equal to the stream's steps.
#
# At every snapshot of all three halves, before the leg is resumed,
# checkpoint-inspect must report the stored visit counts verified against
# the serialized sets' popcounts (the counter==popcount verdict).  The
# snapshots an earlier schema (/2) wrote, kept in test/golden, must make
# both checkpoint-inspect and --resume-from exit 2.
#
# Daemon half: SIGKILL an eprocd holding live and hibernated sessions,
# restart it over the same state directory, and require every session
# whose state reached disk to come back at its last durable step count
# and continue bit-identically to an uninterrupted daemon.
set -u

EPROC=${EPROC:-_build/default/bin/eproc.exe}
EPROCD=${EPROCD:-_build/default/bin/eprocd.exe}
KILL_EXIT=70

if [ ! -x "$EPROC" ]; then
  echo "crash_matrix: $EPROC not built (run dune build first)" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# note/fail/check/finish plus the daemon scrape/readiness/quit helpers
# come from the shared smoke-script library.
SMOKE_NAME=crash_matrix
. "$(dirname "$0")/serve_lib.sh"

expect_exit() {
  # expect_exit WANT DESC CMD...
  local want=$1 desc=$2 got
  shift 2
  check
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    fail "$desc: expected exit $want, got $got"
  fi
}

# --- campaign crash matrix --------------------------------------------------

EXP=fig1 SCALE=tiny SEED=1

note "baseline $EXP --scale $SCALE --seed $SEED"
"$EPROC" experiment $EXP --scale $SCALE --seed $SEED --jobs 1 \
  --csv "$work/base.csv" >/dev/null 2>&1 \
  || { echo "crash_matrix: baseline run failed" >&2; exit 2; }

env EWALK_FLIGHT_DIR="$work/probe-flight" \
  "$EPROC" experiment $EXP --scale $SCALE --seed $SEED --jobs 1 \
  --checkpoint-dir "$work/probe" >/dev/null 2>&1 \
  || { echo "crash_matrix: probe run failed" >&2; exit 2; }
check
[ ! -e "$work/probe-flight/flight.jsonl" ] \
  || fail "cleanly completed run left a flight dump"
K=$(wc -l < "$work/probe/trials.jsonl")
note "campaign journals $K trials; killing at every boundary x jobs {1,4}"

# Verify a flight dump against a graph reconstructed from its own
# run_start stamp (only n and m must match; a d-regular graph with the
# dump's n and m is d = 2m/n).
verify_flight() {
  # verify_flight DESC FILE
  local desc=$1 file=$2 n m
  check
  if [ ! -s "$file" ]; then
    fail "$desc: no flight dump at $file"
    return
  fi
  n=$(grep -o '"n":[0-9]*' "$file" | head -1 | cut -d: -f2)
  m=$(grep -o '"m":[0-9]*' "$file" | head -1 | cut -d: -f2)
  if [ -z "$n" ] || [ -z "$m" ] || [ $((2 * m % n)) -ne 0 ]; then
    fail "$desc: dump has no usable run_start (n=$n m=$m)"
    return
  fi
  "$EPROC" verify-trace --family regular:$((2 * m / n)) -n "$n" --seed 1 \
    --flight "$file" >/dev/null 2>&1 \
    || fail "$desc: verify-trace --flight rejected the dump"
}

for jobs in 1 4; do
  k=1
  while [ "$k" -le "$K" ]; do
    dir=$work/kill-$jobs-$k
    expect_exit $KILL_EXIT "kill-trial:$k --jobs $jobs dies at boundary" \
      env EWALK_FAULT_SPEC=kill-trial:$k EWALK_FLIGHT_DIR="$dir/flight" \
      EWALK_RUNS_DIR="$dir/runs" \
      "$EPROC" experiment $EXP --scale $SCALE --seed $SEED --jobs $jobs \
      --checkpoint-dir "$dir"
    verify_flight "kill-trial:$k --jobs $jobs post-mortem" \
      "$dir/flight/flight.jsonl"
    # The journal must hold exactly the k trials that completed.
    check
    lines=$(wc -l < "$dir/trials.jsonl" 2>/dev/null || echo 0)
    [ "$lines" -eq "$k" ] \
      || fail "kill-trial:$k --jobs $jobs journaled $lines trials, wanted $k"
    # The killed leg's run_id must be stamped consistently into the
    # manifest, the flight-recorder dump, and every journal row it wrote.
    mrun=$(grep -o '"run_id":"r[0-9a-f]\{16\}"' "$dir/campaign.json" \
      | head -1 | cut -d'"' -f4)
    check
    [ -n "$mrun" ] || fail "kill-trial:$k --jobs $jobs manifest has no run_id"
    check
    grep -q "\"run_id\":\"$mrun\"" "$dir/flight/flight.jsonl" \
      || fail "kill-trial:$k --jobs $jobs flight dump not stamped with $mrun"
    check
    [ "$(grep -c "\"run_id\":\"$mrun\"" "$dir/trials.jsonl")" -eq "$k" ] \
      || fail "kill-trial:$k --jobs $jobs journal rows not stamped with $mrun"
    expect_exit 0 "resume after kill-trial:$k --jobs $jobs" \
      env EWALK_RUNS_DIR="$dir/runs" \
      "$EPROC" experiment $EXP --scale $SCALE --seed $SEED --jobs $jobs \
      --checkpoint-dir "$dir" --resume --csv "$dir/out.csv"
    check
    cmp -s "$work/base.csv" "$dir/out.csv" \
      || fail "resumed CSV differs from baseline (kill-trial:$k --jobs $jobs)"
    # The resume leg must mint a child run whose parent is the killed
    # leg, stamp the rows it replays-and-extends with its own id, and
    # `eproc runs show` must reassemble the chain.
    rrun=$(grep -l "\"parent_run_id\":\"$mrun\"" "$dir"/runs/*/meta.json \
      2>/dev/null | head -1)
    rrun=${rrun:+$(basename "$(dirname "$rrun")")}
    check
    if [ -z "$rrun" ] || [ "$rrun" = "$mrun" ]; then
      fail "resume after kill-trial:$k --jobs $jobs minted no child of $mrun"
    else
      check
      [ "$(grep -c "\"run_id\":\"$rrun\"" "$dir/trials.jsonl")" \
        -eq $((K - k)) ] \
        || fail "resumed journal rows not stamped with child run $rrun"
      check
      env EWALK_RUNS_DIR="$dir/runs" "$EPROC" runs show "$rrun" \
        > "$work/show.txt" 2>&1 \
        && grep -q "$mrun" "$work/show.txt" \
        || fail "eproc runs show $rrun does not reassemble the chain to $mrun"
    fi
    rm -rf "$dir"
    k=$((k + 1))
  done
done

# Resuming with a mismatched manifest must be refused.
expect_exit 2 "resume with mismatched seed refused" \
  "$EPROC" experiment $EXP --scale $SCALE --seed 99 --jobs 1 \
  --checkpoint-dir "$work/probe" --resume

# --- trace checkpoint/resume ------------------------------------------------

G="--family regular:4 -n 64 --seed 3"   # graph identity (shared with verify)
TR="$G --process e-process"             # the traced walk
CUT=100      # steps before the simulated crash
EVERY=50     # checkpoint spacing; CUT is a boundary

note "trace checkpoint/resume on $TR"
check
"$EPROC" trace $TR --out "$work/full.jsonl" >/dev/null 2>&1 \
  || fail "uninterrupted trace run failed"
check
env EWALK_RUNS_DIR="$work/truns" \
  "$EPROC" trace $TR --checkpoint "$work/snap" --checkpoint-every $EVERY \
  --max-steps $CUT --out "$work/head.jsonl" >/dev/null 2>&1 \
  || fail "checkpointed head run failed"
check
[ -f "$work/snap" ] || fail "no snapshot written at the $CUT-step boundary"
check
env EWALK_RUNS_DIR="$work/truns" \
  "$EPROC" trace $TR --resume-from "$work/snap" --out "$work/tail.jsonl" \
  >/dev/null 2>&1 || fail "resume from snapshot failed"

# Run provenance across the cut: the head's prologue run_info, the
# snapshot header, and the resumed tail must chain parent -> child.
hrun=$(grep -o '"run_id":"r[0-9a-f]\{16\}"' "$work/head.jsonl" \
  | head -1 | cut -d'"' -f4)
check
[ -n "$hrun" ] || fail "checkpointed head has no run_info prologue"
check
"$EPROC" checkpoint-inspect "$work/snap" | grep -q "run $hrun" \
  || fail "snapshot header run_id differs from head prologue ($hrun)"
check
"$EPROC" checkpoint-inspect "$work/snap" | grep -q 'counter==popcount' \
  || fail "snapshot at $CUT lacks the counter==popcount verdict"
trun=$(grep -o '"run_id":"r[0-9a-f]\{16\}"' "$work/tail.jsonl" \
  | head -1 | cut -d'"' -f4)
check
if [ -z "$trun" ] || [ "$trun" = "$hrun" ]; then
  fail "resumed tail did not mint a fresh run id (got '$trun')"
else
  check
  grep -q "\"parent_run_id\":\"$hrun\"" "$work/tail.jsonl" \
    || fail "resumed tail prologue does not name $hrun as parent"
  check
  env EWALK_RUNS_DIR="$work/truns" "$EPROC" runs show "$trun" \
    > "$work/tshow.txt" 2>&1 \
    && grep -q "$hrun" "$work/tshow.txt" \
    || fail "eproc runs show $trun does not reassemble the chain to $hrun"
fi

# The resumed stream's step events must be byte-identical to the same tail
# of the uninterrupted stream (crash equivalence).
check
grep '"type":"step"' "$work/full.jsonl" | tail -n +$((CUT + 1)) \
  > "$work/full-tail.steps"
grep '"type":"step"' "$work/tail.jsonl" > "$work/resumed.steps"
cmp -s "$work/full-tail.steps" "$work/resumed.steps" \
  || fail "resumed step stream differs from the uninterrupted tail"

expect_exit 0 "verify-trace accepts the uninterrupted stream" \
  "$EPROC" verify-trace $G "$work/full.jsonl"
expect_exit 0 "verify-trace accepts the checkpointed head" \
  "$EPROC" verify-trace $G "$work/head.jsonl"
expect_exit 0 "verify-trace accepts the resumed tail" \
  "$EPROC" verify-trace $G "$work/tail.jsonl"

expect_exit 0 "checkpoint-inspect reads a healthy snapshot" \
  "$EPROC" checkpoint-inspect "$work/snap"
expect_exit 0 "checkpoint-inspect reads a campaign directory" \
  "$EPROC" checkpoint-inspect "$work/probe"

# --- kernel campaign: W=4 lockstep kill-and-resume --------------------------
# (No verify-trace here: a multi-walker stream interleaves four walks and
# is not a single-walk trace; byte equality against the uninterrupted run
# is the correctness criterion.)

KTR="$G --process e-process --walkers 4"
KEVERY=50

note "kernel trace checkpoint/resume on $KTR"
check
"$EPROC" trace $KTR --out "$work/kfull.jsonl" >/dev/null 2>&1 \
  || fail "uninterrupted kernel trace run failed"
KSTEPS=$(grep -c '"type":"step"' "$work/kfull.jsonl")
note "kernel run covers in $KSTEPS walker-steps; killing at every ${KEVERY}-step boundary"

kcut=$KEVERY
while [ "$kcut" -lt "$KSTEPS" ]; do
  check
  "$EPROC" trace $KTR --checkpoint "$work/ksnap" --checkpoint-every $KEVERY \
    --max-steps "$kcut" --out "$work/khead.jsonl" >/dev/null 2>&1 \
    || fail "kernel head run to step $kcut failed"
  check
  [ -f "$work/ksnap" ] || fail "no kernel snapshot at the $kcut-step boundary"
  check
  "$EPROC" checkpoint-inspect "$work/ksnap" | grep -q 'counter==popcount' \
    || fail "kernel snapshot at $kcut lacks the counter==popcount verdict"
  check
  "$EPROC" trace $KTR --resume-from "$work/ksnap" --out "$work/ktail.jsonl" \
    >/dev/null 2>&1 || fail "kernel resume from step $kcut failed"
  check
  grep '"type":"step"' "$work/kfull.jsonl" | tail -n +$((kcut + 1)) \
    > "$work/kfull-tail.steps"
  grep '"type":"step"' "$work/ktail.jsonl" > "$work/kresumed.steps"
  cmp -s "$work/kfull-tail.steps" "$work/kresumed.steps" \
    || fail "kernel resumed stream differs from the uninterrupted tail (cut $kcut)"
  kcut=$((kcut + KEVERY))
done

expect_exit 0 "checkpoint-inspect reads a kernel snapshot" \
  "$EPROC" checkpoint-inspect "$work/ksnap"

# --- competing kernel: one visited set per walker, kill-and-resume ----------
# Same discipline as above, on "kernel-competing" snapshots (one edge and
# vertex set per walker, serialized as hex), with the same recount at
# every resume leg.

CTR="$G --process e-process --walkers 4 --compete"
CEVERY=50

# blue_steps + red_steps from a --metrics file.
colour_steps() {
  local blue red
  blue=$(grep -o '"blue_steps":[0-9]*' "$1" | cut -d: -f2)
  red=$(grep -o '"red_steps":[0-9]*' "$1" | cut -d: -f2)
  echo $((${blue:-0} + ${red:-0}))
}

note "competing trace checkpoint/resume on $CTR"
check
"$EPROC" trace $CTR --out "$work/cfull.jsonl" --metrics "$work/cfull.json" \
  >/dev/null 2>&1 || fail "uninterrupted competing trace run failed"
CSTEPS=$(grep -c '"type":"step"' "$work/cfull.jsonl")
check
[ "$(colour_steps "$work/cfull.json")" -eq "$CSTEPS" ] \
  || fail "competing --metrics blue + red steps differ from the stream's $CSTEPS"
note "competing run finishes in $CSTEPS walker-steps; killing at every ${CEVERY}-step boundary"

ccut=$CEVERY
while [ "$ccut" -lt "$CSTEPS" ]; do
  check
  "$EPROC" trace $CTR --checkpoint "$work/csnap" --checkpoint-every $CEVERY \
    --max-steps "$ccut" --out "$work/chead.jsonl" >/dev/null 2>&1 \
    || fail "competing head run to step $ccut failed"
  check
  [ -f "$work/csnap" ] \
    || fail "no competing snapshot at the $ccut-step boundary"
  check
  "$EPROC" checkpoint-inspect "$work/csnap" | grep -q 'counter==popcount' \
    || fail "competing snapshot at $ccut lacks the counter==popcount verdict"
  check
  "$EPROC" trace $CTR --resume-from "$work/csnap" --out "$work/ctail.jsonl" \
    >/dev/null 2>&1 || fail "competing resume from step $ccut failed"
  check
  grep '"type":"step"' "$work/cfull.jsonl" | tail -n +$((ccut + 1)) \
    > "$work/cfull-tail.steps"
  grep '"type":"step"' "$work/ctail.jsonl" > "$work/cresumed.steps"
  cmp -s "$work/cfull-tail.steps" "$work/cresumed.steps" \
    || fail "competing resumed stream differs from the uninterrupted tail (cut $ccut)"
  ccut=$((ccut + CEVERY))
done

expect_exit 0 "checkpoint-inspect reads a competing snapshot" \
  "$EPROC" checkpoint-inspect "$work/csnap"

csize=$(wc -c < "$work/csnap")
head -c $((csize - 10)) "$work/csnap" > "$work/csnap.trunc"
expect_exit 2 "truncated competing snapshot rejected by checkpoint-inspect" \
  "$EPROC" checkpoint-inspect "$work/csnap.trunc"
expect_exit 2 "truncated competing snapshot rejected by --resume-from" \
  "$EPROC" trace $CTR --resume-from "$work/csnap.trunc" --out /dev/null

ksize=$(wc -c < "$work/ksnap")
head -c $((ksize - 10)) "$work/ksnap" > "$work/ksnap.trunc"
expect_exit 2 "truncated kernel snapshot rejected by checkpoint-inspect" \
  "$EPROC" checkpoint-inspect "$work/ksnap.trunc"
expect_exit 2 "truncated kernel snapshot rejected by --resume-from" \
  "$EPROC" trace $KTR --resume-from "$work/ksnap.trunc" --out /dev/null

# --- corrupted snapshots are rejected, never half-loaded --------------------

size=$(wc -c < "$work/snap")
head -c $((size - 10)) "$work/snap" > "$work/snap.trunc"
expect_exit 2 "truncated snapshot rejected by checkpoint-inspect" \
  "$EPROC" checkpoint-inspect "$work/snap.trunc"
expect_exit 2 "truncated snapshot rejected by --resume-from" \
  "$EPROC" trace $TR --resume-from "$work/snap.trunc" --out /dev/null

# Flip one payload byte: the CRC must catch it.
cp "$work/snap" "$work/snap.flip"
orig=$(dd if="$work/snap.flip" bs=1 skip=$((size - 10)) count=1 2>/dev/null)
sub=Z; [ "$orig" = "Z" ] && sub=Q
printf '%s' "$sub" | dd of="$work/snap.flip" bs=1 seek=$((size - 10)) \
  conv=notrunc 2>/dev/null
expect_exit 2 "bit-flipped snapshot rejected by checkpoint-inspect" \
  "$EPROC" checkpoint-inspect "$work/snap.flip"
expect_exit 2 "bit-flipped snapshot rejected by --resume-from" \
  "$EPROC" trace $TR --resume-from "$work/snap.flip" --out /dev/null

expect_exit 2 "missing snapshot rejected" \
  "$EPROC" checkpoint-inspect "$work/no-such-snapshot"

# --- snapshots of an earlier schema are refused -----------------------------

GOLDEN=$(dirname "$0")/golden
for old in kernel kernel-competing; do
  expect_exit 2 "schema /2 $old snapshot rejected by checkpoint-inspect" \
    "$EPROC" checkpoint-inspect "$GOLDEN/$old.v2.snapshot.json"
  expect_exit 2 "schema /2 $old snapshot rejected by --resume-from" \
    "$EPROC" trace $KTR --resume-from "$GOLDEN/$old.v2.snapshot.json" \
    --out /dev/null
done

# --- eprocd: kill the daemon mid-session, restart, recover ------------------
# Sessions live in a state directory: hibernated state (snapshot + meta)
# is durable, purely in-memory progress is not.  A SIGKILLed daemon must
# restart over the same directory with every durable session intact, and
# a recovered session must continue exactly like one on a daemon that
# was never killed.

if [ ! -x "$EPROCD" ]; then
  check
  fail "$EPROCD not built (run dune build first)"
  finish
fi

SG="--family regular:4 -n 64 --seed 3"

start_eprocd() {
  # start_eprocd STATE_DIR ERRLOG — announce pid in dpid, url in durl.
  "$EPROCD" --port 0 --state-dir "$1" --resident-cap 8 \
    >/dev/null 2>"$2" &
  dpid=$!
  durl=$(scrape_url "$2" "$dpid")
  check
  if [ -z "$durl" ]; then
    fail "eprocd ($1): no listen announcement"
    return 1
  fi
  check
  wait_healthz "$durl" "$dpid" || fail "eprocd ($1): /healthz never answered"
}

start_eprocd "$work/dstate" "$work/d1.err" || finish

# s000001: stepped to 40, hibernated (durable at 40), then stepped 15
# more in memory only — the post-kill truth is 40.
check
s1=$(curl -sf -X POST \
  --data '{"family":"regular:4","n":64,"seed":3}' "$durl/sessions" \
  | json_field id)
[ -n "$s1" ] || fail "daemon create s1 failed"
check
got=$(curl -sf -X POST --data '{"steps":40}' "$durl/sessions/$s1/step" \
  | json_int steps)
[ "$got" = "40" ] || fail "s1 stepped to '$got', wanted 40"
check
curl -sf -X POST "$durl/sessions/$s1/hibernate" >/dev/null \
  || fail "s1 hibernate failed"
check
got=$(curl -sf -X POST --data '{"steps":15}' "$durl/sessions/$s1/step" \
  | json_int steps)
[ "$got" = "55" ] || fail "s1 re-stepped to '$got', wanted 55"

# s000002: created but never hibernated — recovers at step 0.
check
s2=$(curl -sf -X POST \
  --data '{"family":"regular:4","n":64,"seed":4}' "$durl/sessions" \
  | json_field id)
[ -n "$s2" ] || fail "daemon create s2 failed"
check
got=$(curl -sf -X POST --data '{"steps":10}' "$durl/sessions/$s2/step" \
  | json_int steps)
[ "$got" = "10" ] || fail "s2 stepped to '$got', wanted 10"

kill -9 "$dpid" 2>/dev/null
wait "$dpid" 2>/dev/null
note "killed eprocd mid-session; restarting over $work/dstate"

start_eprocd "$work/dstate" "$work/d2.err" || finish
pid2=$dpid

check
got=$(curl -sf "$durl/sessions/$s1" | json_int steps)
[ "$got" = "40" ] || fail "recovered s1 reports '$got' steps, wanted 40 \
(the last hibernated state)"
check
got=$(curl -sf "$durl/sessions/$s2" | json_int steps)
[ "$got" = "0" ] || fail "recovered s2 reports '$got' steps, wanted 0 \
(never hibernated)"

# The recovered session continues from its snapshot and its stream still
# verifies.
check
got=$(curl -sf -X POST --data '{"steps":20}' "$durl/sessions/$s1/step" \
  | json_int steps)
[ "$got" = "60" ] || fail "recovered s1 stepped to '$got', wanted 60"
check
curl -sf --max-time 10 "$durl/sessions/$s1/trace?steps=5000" \
  >"$work/recovered.jsonl" || fail "recovered trace stream failed"
expect_exit 0 "verify-trace accepts the recovered session's stream" \
  "$EPROC" verify-trace $SG "$work/recovered.jsonl"

# Bit-identity: an uninterrupted daemon driving the same config to the
# same step count emits the same stream (run_info carries the daemon's
# own run id, so provenance lines are excluded from the comparison).
start_eprocd "$work/dtwin" "$work/d3.err" || finish

check
t1=$(curl -sf -X POST \
  --data '{"family":"regular:4","n":64,"seed":3}' "$durl/sessions" \
  | json_field id)
[ -n "$t1" ] || fail "twin create failed"
check
got=$(curl -sf -X POST --data '{"steps":60}' "$durl/sessions/$t1/step" \
  | json_int steps)
[ "$got" = "60" ] || fail "twin stepped to '$got', wanted 60"
check
curl -sf --max-time 10 "$durl/sessions/$t1/trace?steps=5000" \
  >"$work/twin.jsonl" || fail "twin trace stream failed"

check
grep -v '"type":"run_info"' "$work/recovered.jsonl" >"$work/recovered.cmp"
grep -v '"type":"run_info"' "$work/twin.jsonl" >"$work/twin.cmp"
cmp -s "$work/recovered.cmp" "$work/twin.cmp" \
  || fail "recovered session's stream differs from the uninterrupted twin's"

check
quit_bye "$durl" || fail "twin daemon /quit did not answer 'bye'"
wait "$dpid" 2>/dev/null
check
kill -0 "$pid2" 2>/dev/null && {
  durl2=$(scrape_url "$work/d2.err" "$pid2")
  quit_bye "$durl2" || fail "restarted daemon /quit did not answer 'bye'"
}
wait "$pid2" 2>/dev/null

# ----------------------------------------------------------------------------

finish
