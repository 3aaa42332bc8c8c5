#!/bin/sh
# Builds the benchmark and the stc CLI it serves through, from source,
# then runs one benchmark run. From the root of a checkout:
#
#   sh stcbench/run.sh --workload opamp_compact --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
# Everything it writes stays in the checkout: dune's shared cache is off
# and the compiler's temporary files go to .stcbench/tmp.
set -e
cd "$(dirname "$0")/.."
mkdir -p .stcbench/tmp
TMPDIR="$PWD/.stcbench/tmp" DUNE_CACHE=disabled \
  dune build --root . ./stcbench/stcbench.exe ./bin/stc_cli.exe 1>&2
exec ./_build/default/stcbench/stcbench.exe "$@"
