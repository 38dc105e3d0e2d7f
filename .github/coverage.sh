#!/usr/bin/env bash
# Counts the statements under internal/ and rp/ that nothing reaches.
#
# Coverage comes from the tests and from every example and command, built
# with -cover and run as CI runs them. A statement counts as reached if any
# run reached it. The script prints three counts: all statements, those no
# test reaches, and those nothing reaches. It fails when the last count is
# above the baseline in .github/coverage-baseline.txt.
#
# Run it from the repository root: bash .github/coverage.sh
# It needs only the Go toolchain and the shell, and takes about a minute on
# two cores.
set -euo pipefail

root=$PWD
baseline=$(cat "$root/.github/coverage-baseline.txt")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/counters" "$work/run"

go test -coverpkg=./internal/...,./rp/... -coverprofile="$work/test.txt" ./...

# A binary built with -coverpkg=./internal/...,./rp/... writes no counter
# files, and says nothing, so build with ./... and filter below. Each binary
# is named by its path: examples/impeccable and cmd/impeccable share a base
# name.
for dir in examples/*/ cmd/*/; do
	dir=${dir%/}
	go build -cover -coverpkg=./... -o "$work/bin/${dir//\//_}" "./$dir"
done

# The runs write their spills, and dagrun its trace table, into one scratch
# directory.
cd "$work/run"
export GOCOVERDIR="$work/counters" TMPDIR="$work/run"
bin=$work/bin
for prog in "$bin"/examples_*; do
	"$prog" >/dev/null
done
"$bin/examples_quickstart" -trace run.jsonl -metrics >/dev/null
"$bin/cmd_rptrace" stats run.jsonl >/dev/null
"$bin/cmd_rptrace" blame run.jsonl >/dev/null
"$bin/cmd_rptrace" critpath run.jsonl >/dev/null
"$bin/cmd_rptrace" export -o trace.json run.jsonl >/dev/null
"$bin/cmd_rptrace" validate trace.json >/dev/null
"$bin/examples_faults" -trace faults.jsonl >/dev/null
"$bin/cmd_rptrace" blame faults.jsonl >/dev/null
"$bin/cmd_rpsim" -exp impeccable -nodes 256 -pilots 4 -shards 4 -trace monitor.jsonl >/dev/null
"$bin/cmd_rptrace" shards monitor.jsonl >/dev/null
"$bin/cmd_rpbench" -only claims >/dev/null
"$bin/cmd_rpbench" -reps 1 >/dev/null
"$bin/cmd_impeccable" >/dev/null
cd "$root"
go tool covdata textfmt -i="$work/counters" -o "$work/runs.txt"

# Profile lines read "file:start,end statements count"; a block appears
# once per test binary and once per profile.
awk -v baseline="$baseline" -v tests="$work/test.txt" '
	FNR == 1 || $1 !~ /^rpgo\/(internal|rp)\// { next }
	{
		stmts[$1] = $2
		if ($3 > 0) {
			reached[$1] = 1
			if (FILENAME == tests) tested[$1] = 1
		}
	}
	END {
		for (b in stmts) {
			total += stmts[b]
			if (!(b in tested)) untested += stmts[b]
			if (!(b in reached)) unreached += stmts[b]
		}
		printf "statements under internal/ and rp/: %d\n", total
		printf "reached by no test:                 %d\n", untested
		printf "reached by nothing:                 %d (baseline %d)\n", unreached, baseline
		if (unreached > baseline) {
			print "more statements are reached by nothing than the baseline allows: reach them, or delete them"
			exit 1
		}
		if (unreached < baseline) {
			print "below the baseline: lower .github/coverage-baseline.txt to " unreached
		}
	}' "$work/test.txt" "$work/runs.txt"
