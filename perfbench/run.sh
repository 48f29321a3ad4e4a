#!/usr/bin/env bash
# Builds the benchmark and the CLI it drives from this source checkout,
# then runs it with the given arguments (see perfbench/README.md):
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ]; then
  echo "perfbench: no dune-project here; run from a full source checkout" >&2
  exit 2
fi
# keep every build output, compiler temporaries included, inside the checkout
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench-tmp"
mkdir -p "$TMPDIR" || exit 2
dune build --root . ./perfbench/main.exe ./bin/streaming_cli.exe >&2 || exit 2
rm -rf "$TMPDIR"
exec ./_build/default/perfbench/main.exe "$@"
