# Convenience targets; `make check` is the tier-1 gate and `make ci` is
# everything the CI workflow runs.

# Seed for the QA sweep (`make qa`); override with QA_SEED=... — it is
# exported as QCHECK_SEED so the qcheck properties in the test suite
# replay the same stream.
QA_SEED ?= 2005

.PHONY: all build check test bench bench-diff equiv-diff golden examples qa suites serve-smoke ci clean

all: build

build:
	dune build @all

check:
	dune build @all && dune runtest

test:
	dune runtest

# The paper harness: Tables 1-3, Figures 3/5/6, Sec. 5.2, the ablations
# and extensions, the learner zoo and enrichment, as text on stdout.
# Timing, serving included, is stcbench's job (BENCHMARK.json).
bench:
	dune exec bench/main.exe

# Compares two files of saved stcbench result lines (the last stdout
# line of each run, one run per line, line i of OLD paired with line i
# of NEW) against the bounds in BENCHMARK.json: per metric, the medians
# with quartiles, the change/parent ratio, wins out of N pairs, the
# bound, and whether the gain rule is met or the bound holds. Exits 1
# if a bound is broken. See tools/bench_diff.ml.
bench-diff:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
	  echo "usage: make bench-diff OLD=FILE NEW=FILE" >&2; exit 2; fi
	@dune exec tools/bench_diff.exe -- $(OLD) $(NEW)

# The equivalence gate of a change that moves simulator numerics.
# `dune exec tools/equiv.exe -- record > FILE` prints a record: every
# spec of four 200-draw op-amp populations, stc opamp's greedy steps and
# stc mems's eliminations on seeds 2005-2008, and each flow's
# fingerprint, counts and verdict digest. This compares two records
# line by line: identical, moved (a spec value or flow bytes; the
# largest relative move per spec is reported) or changed (a decision,
# a verdict or a count). Exits 1 if any line changed. See
# tools/equiv.ml.
equiv-diff:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
	  echo "usage: make equiv-diff OLD=FILE NEW=FILE" >&2; exit 2; fi
	@dune exec tools/equiv.exe -- diff $(OLD) $(NEW)

# The paper-golden regression tier at near-paper populations (7-16 s on
# a 2-vCPU host); the smoke tier runs in the default `dune runtest`.
golden:
	STC_SLOW=1 dune exec test/test_main.exe -- test golden

# The QA sweep: the whole suite under the pinned seed in qcheck's long
# mode (QCHECK_LONG=1), where the floor properties bin 1,040 generated
# flows against the reference binner — the acceptance bar for
# serving-path changes. The suite is forced to run (dune would
# otherwise replay a cached result), keeps dune's exit status, and must
# report the pinned seed; its output is kept in _build/qa-runtest.log
# for that check. Replay a failure with QCHECK_SEED=N dune runtest --force.
qa:
	@mkdir -p _build
	@QCHECK_SEED=$(QA_SEED) QCHECK_LONG=1 dune runtest --force > _build/qa-runtest.log 2>&1; status=$$?; \
	  cat _build/qa-runtest.log; \
	  if [ $$status -ne 0 ]; then exit $$status; fi; \
	  if ! grep -q "^qcheck random seed: $(QA_SEED)$$" _build/qa-runtest.log; then \
	    echo "make qa: the suite did not report qcheck random seed: $(QA_SEED)" >&2; \
	    exit 1; \
	  fi

# Suites that gate invariants CI relies on: SMO shrinking, whose solves
# must stop at the optimum of the whole problem (svm_equiv.shrink),
# enrichment and Monte-Carlo determinism at any domain count
# (process.enrich, process.parallel), the learner zoo and its promotion gate (learner.*), the simulator's
# spec-vector pins and one-instance allocation budget (circuit.pins),
# the paper-golden smoke tier, the QA oracles (among them the
# split-array complex solve against the boxed one) and fault checks
# (qa.properties, qa.faults, qa.pool, and
# net faults: the server under attack), bit-identical flows across a
# journal kill and resume (resilience: kill/resume), and no
# acknowledged device dropped by torn frames or a mid-batch disconnect
# (net faults), or by a draining server (net server). `dune runtest`
# runs every registered suite; this target fails, naming the suite, if
# one of these is no longer registered in test_main.ml, so CI cannot
# pass by silently dropping it.
# Comma-separated.
REQUIRED_SUITES = svm_equiv.shrink,process.enrich,process.parallel,learner.mlp,learner.mi,learner.io,learner.flow2,learner.gate,circuit.pins,golden: smoke,qa.properties,qa.faults,qa.pool,net faults,resilience: kill/resume,net server

suites:
	@mkdir -p _build
	@dune exec test/test_main.exe -- list --color=never > _build/suite-list.txt
	@sed -E 's/ +[0-9]+ +.*$$//' _build/suite-list.txt | sort -u > _build/suites.txt
	@required='$(REQUIRED_SUITES)'; missing=0; IFS=,; \
	for s in $$required; do \
	  if ! grep -qxF "$$s" _build/suites.txt; then \
	    echo "make suites: required suite '$$s' is not registered" >&2; \
	    missing=1; \
	  fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "make suites: all required suites registered"

# End-to-end network serving smoke: a loopback server on an ephemeral
# port, 100 devices from two concurrent clients (BATCH and pipelined
# BIN paths), a hot reload under the traffic, a METRICS scrape (request
# and idle overload counters) and a clean wire SHUTDOWN — all
# bit-checked against the offline Floor reference. Exits nonzero on any
# mismatch.
serve-smoke:
	dune exec test/serve_smoke.exe

# Everything the CI workflow runs: build, tier-1 tests, the QA sweep
# (the suite in qcheck long mode) under the pinned seed, the
# required-suite manifest, the STC_SLOW=1 paper-golden tier, the
# network serving smoke, every example (quickstart and custom_device
# bin on the floor engine, opamp_compaction and mems_tritemp run the
# paper's two case studies in about a second each, net_serving drives
# the client and server over loopback), and the paper harness end to end
# (its text output is not compared; a crash fails the step). The
# server-abuse scenarios (connection flood, slow loris, reply ignorer)
# run in the test suite's `net faults` suite.
ci:
	dune build @all
	dune runtest
	$(MAKE) qa
	$(MAKE) suites
	$(MAKE) golden
	$(MAKE) serve-smoke
	$(MAKE) examples
	$(MAKE) bench

examples:
	dune exec examples/quickstart.exe
	dune exec examples/custom_device.exe
	dune exec examples/opamp_compaction.exe
	dune exec examples/mems_tritemp.exe
	dune exec examples/floor_serving.exe
	dune exec examples/net_serving.exe

clean:
	dune clean
