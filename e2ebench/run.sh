#!/usr/bin/env bash
# Build the end-to-end benchmark from source in this checkout, then run it
# with the given arguments, e.g.
#   bash e2ebench/run.sh --workload attack --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
