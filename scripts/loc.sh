#!/usr/bin/env bash
# Non-test Go lines per package directory (wc -l), their total, and the
# wire message-type count (entries of proto.msgNames) — the two size
# figures ROADMAP aim 2 tracks. bench/ (its own module, frozen for
# perf PRs), .bench_build/ and testdata/ are not counted. Run it from
# any checkout: scripts/loc.sh [root] (default: this script's repo).
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' \
  ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
  -exec wc -l {} + |
  awk '$2 != "total" {
         dir = $2; sub(/^\.\//, "", dir)
         if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
         lines[dir] += $1; total += $1
       }
       END {
         for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", total
       }'
# One `MsgFoo: "FOO"` pair per wire message type, several to a line.
sed -n '/^var msgNames = /,/^}/p' internal/proto/proto.go | grep -o 'Msg[A-Za-z]*: "' |
  awk 'END { printf "%7d  wire message types\n", NR }'
