#!/usr/bin/env bash
# reach.sh lists the functions no experiment executes.
#
# It builds rdmabench with coverage over every package, runs every
# experiment at scale 0.02 three times (lossless, a drop plan, and a
# drop/corrupt/delay plan with -timeline and -metrics), renders fig1 and
# table2 as CSV and fig1 as a chart, and prints one line per function whose
# coverage is 0.0%: "<file> <function>", sorted, without line numbers.
#
#   bash .github/reach.sh > unreached.now
#   comm -23 unreached.now .github/unreached.txt   # newly unreached functions
#
# Run it from the repository root. The runs take about 30 s on a 2-CPU
# host.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -cover -coverpkg=./... -o "$work/rdmabench.cov" ./cmd/rdmabench
mkdir "$work/cov"
export GOCOVERDIR="$work/cov"
"$work/rdmabench.cov" -exp all -scale 0.02 >/dev/null
"$work/rdmabench.cov" -exp all -scale 0.02 -faults seed=1,drop=0.01 >/dev/null
"$work/rdmabench.cov" -exp all -scale 0.02 \
	-faults seed=7,drop=0.01,corrupt=0.001,delayp=0.05,delay=2000 \
	-timeline "$work/tl.json" -metrics >/dev/null
"$work/rdmabench.cov" -exp fig1 -scale 0.02 -format csv >/dev/null
"$work/rdmabench.cov" -exp table2 -scale 0.02 -format csv >/dev/null
"$work/rdmabench.cov" -exp fig1 -scale 0.02 -format chart >/dev/null
unset GOCOVERDIR

go tool covdata textfmt -i="$work/cov" -o "$work/cov.txt"
go tool cover -func="$work/cov.txt" |
	awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	LC_ALL=C sort
