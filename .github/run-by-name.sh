#!/usr/bin/env bash
# Runs tests by exact name and fails unless each name prints --- PASS
# exactly COUNT times: `go test -run` passes silently when no name
# matches, so a renamed or deleted test would otherwise drop out
# unnoticed.
#
# Usage: run-by-name.sh COUNT "GO TEST FLAGS" "NAMES" PACKAGE...
#   e.g. run-by-name.sh 10 -race "TestA TestB" ./internal/pmem/
set -euo pipefail
count=$1 flags=$2 names=$3
shift 3
pattern="^($(echo $names | tr ' ' '|'))$"
out=$(mktemp)
# $flags is split on purpose: it holds zero or more go test flags.
if ! go test $flags -count="$count" -v -run "$pattern" "$@" > "$out"; then
  cat "$out"
  exit 1
fi
for n in $names; do
  c=$(grep -c -- "^--- PASS: $n " "$out" || true)
  if [ "$c" -ne "$count" ]; then
    echo "$n printed --- PASS $c time(s), want $count"
    exit 1
  fi
done
echo "$(echo $names | wc -w) test(s) passed $count time(s) each"
