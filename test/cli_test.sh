#!/bin/sh
# The stc command line end to end at a small size (80 training and 40
# test op-amp instances, about a second in all):
#
#   sh test/cli_test.sh _build/default/bin/stc_cli.exe
#
# It checks that `stc mems --seed 2005`, the paper's headline Table 3
# and Sec. 5.2 run (about 0.1 s), and `stc opamp --train 80 --test 40
# --seed 2005` print the six and the 14 lines kept below byte for byte,
# that two `stc opamp --save-flow --save-test` runs write the
# same bytes, that `stc serve` bins every saved device, that a journal
# cut after some of its steps resumes to the same flow, and the exit
# codes of a deleted command (124), of out-of-range options and a
# server address that cannot be bound (1), and of a save, metrics or
# trace file that cannot be written (2). No line that carries a timing
# is compared. Silent on success; on a failure it names the check on
# stderr and exits 1.
set -eu

stc=$1
case $stc in /*) ;; *) stc=$PWD/$stc ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() {
  echo "cli_test: $*" >&2
  exit 1
}

expect_exit() {
  want=$1
  shift
  "$stc" "$@" > /dev/null 2>&1 && got=0 || got=$?
  [ "$got" -eq "$want" ] || fail "stc $*: exit $got, expected $want"
}

small="--train 80 --test 40"

# the headline command prints no timing, so its whole stdout is pinned
"$stc" mems --seed 2005 > mems.out
cat > mems.expected <<'EOF'
generating 1200 MEMS instances (seed 2005)...
train yield 85.8%, test yield 82.8%
eliminate -40C  escape 0.00%  loss 0.00%  guard 3.25%
eliminate 80C   escape 0.00%  loss 0.00%  guard 10.25%
eliminate both  escape 0.00%  loss 0.00%  guard 10.25%
cost: full $1092 -> compacted $482 (saving 55.9%)
EOF
cmp -s mems.expected mems.out \
  || fail "stc mems --seed 2005 printed other lines than the six kept here"

# so is the op-amp command's at this size: a simulator numerics change
# that moves a greedy decision or a count fails here
"$stc" opamp $small --seed 2005 > opamp.out
cat > opamp.expected <<'EOF'
generating 120 op-amp instances (seed 2005)...
train yield 80.0%, test yield 75.0%
  3-dB bandwidth           e_p= 0.00%  eliminated
  rise time                e_p= 2.50%  kept
  settling time            e_p= 0.00%  eliminated
  overshoot                e_p= 0.00%  eliminated
  short circuit current    e_p= 0.00%  eliminated
  common mode gain         e_p= 0.00%  eliminated
  power supply gain        e_p= 0.00%  eliminated
  gain                     e_p= 0.00%  eliminated
  unity gain frequency     e_p= 2.50%  kept
  slew rate                e_p=12.50%  kept
  quiescent current        e_p=15.00%  kept
kept 4 of 11 tests; escape 0.00%  loss 0.00%  guard 5.00%  (test yield 75.0%)
EOF
cmp -s opamp.expected opamp.out \
  || fail "stc opamp $small --seed 2005 printed other lines than the 14 kept here"

# two runs, one of them journalled, save the same flow and devices
"$stc" opamp $small --save-flow a.stc --save-test a.csv > /dev/null
"$stc" opamp $small --save-flow b.stc --save-test b.csv --journal j.stcj \
  > /dev/null
cmp -s a.stc b.stc || fail "two opamp runs wrote different flows"
cmp -s a.csv b.csv || fail "two opamp runs wrote different device CSVs"

"$stc" serve --flow a.stc --input a.csv > serve.out
grep -qx "40 devices binned" serve.out \
  || fail "serve did not print '40 devices binned'"

# a kill between records: keep the journal up to its fourth step line
awk '/^step /{ n++ } n < 4' j.stcj > cut.stcj
"$stc" opamp $small --journal cut.stcj --resume --save-flow c.stc > c.out
grep -qx "resuming cut.stcj: replaying 3 journaled steps" c.out \
  || fail "the resumed run did not replay 3 journaled steps"
cmp -s a.stc c.stc || fail "the resumed run wrote a different flow"

expect_exit 124 train $small --save-flow t.stc
# the exit-status section lists each status once
"$stc" --help=plain > help.out
[ "$(grep -c '^ *0 *on success\.$' help.out)" -eq 1 ] \
  || fail "stc --help=plain does not list exit status 0 exactly once"
expect_exit 1 opamp --test 0
expect_exit 1 opamp --tolerance nan
expect_exit 1 opamp --grid 0
expect_exit 1 mems --test 0
expect_exit 1 mems --grid 0
expect_exit 1 sweep --test 0
# `stc server` checks its address before it loads a flow (a missing
# flow file would exit 2), and a bind failure is one line and exit 1;
# 192.0.2.1 is TEST-NET-1, which no local interface holds
expect_exit 1 server --listen 70000 --flow dut=missing.stc
expect_exit 1 server --host nosuchhost --flow dut=missing.stc
expect_exit 1 server --host 192.0.2.1 --flow dut=a.stc

# a write that fails, also at the flush when the file is closed, is a
# data error: exit 2 and no "->" line claiming the file was written
if [ -c /dev/full ]; then
  for out in --save-flow --save-test --metrics --trace; do
    "$stc" opamp --train 40 --test 20 "$out" /dev/full > full.out 2>&1 \
      && got=0 || got=$?
    [ "$got" -eq 2 ] || fail "stc opamp $out /dev/full: exit $got, expected 2"
    if grep -q -- '->' full.out; then
      fail "stc opamp $out /dev/full printed a '->' line"
    fi
  done
fi
