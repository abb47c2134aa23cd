#!/bin/sh
# Write every byte-compared golden into OUTDIR.  Each OUTDIR/BENCH_<name>.json
# is exactly the file one `ccsl-cli <args> --json FILE` call writes, at quick
# scale with the reference seeds; the calls are listed once, below.
#
#   test/goldens.sh fresh    # then diff each fresh/BENCH_*.json with the root
#   test/goldens.sh .        # regenerate the committed goldens
#
# The exports hold simulated results only, so they are deterministic.
# BENCH_simspeed.json is not listed: it records host throughput, which no two
# runs repeat (regenerate it with `ccsl-cli simbench --json BENCH_simspeed.json`).
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
dune build ./bin/ccsl_cli.exe
cli=./_build/default/bin/ccsl_cli.exe

golden() {
  name=$1
  shift
  "$cli" "$@" --json "$out/BENCH_$name.json" > /dev/null
  echo "wrote $out/BENCH_$name.json"
}

golden fig5 fig5
golden fig6 fig6
golden fig7 fig7
golden fig10 fig10
golden table2 table2
golden control control
golden ablations ablations
golden profile profile health
golden run run treeadd
