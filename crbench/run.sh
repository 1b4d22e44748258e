#!/bin/bash
# The benchmark's command (BENCHMARK.json): `--trace 1` runs the
# per-layer bin, anything else the end-to-end bin. Only the bin that
# runs is built, so the end-to-end gate does not depend on the inner
# APIs the layer waterfall calls.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
bin=crbench
prev=
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=crbench-layers; fi
  prev="$arg"
done
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" -- "$@"
