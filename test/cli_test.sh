#!/bin/sh
# The stc command line end to end at a small size (80 training and 40
# test op-amp instances, about a second in all):
#
#   sh test/cli_test.sh _build/default/bin/stc_cli.exe
#
# It checks that two `stc opamp --save-flow --save-test` runs write the
# same bytes, that `stc serve` bins every saved device, that a journal
# cut after some of its steps resumes to the same flow, and the exit
# codes of a deleted command (124) and of out-of-range options (1). No
# line that carries a timing is compared. Silent on success; on a
# failure it names the check on stderr and exits 1.
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
expect_exit 1 opamp --test 0
expect_exit 1 opamp --tolerance nan
expect_exit 1 mems --test 0
expect_exit 1 sweep --test 0
