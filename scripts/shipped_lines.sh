#!/bin/bash
# Shipped Rust lines, per crate and in total.
#
#   scripts/shipped_lines.sh [ref]
#
# "Shipped" is the library and binary code a build ships: every `.rs`
# file under `crates/*/src` and `src/`, and nothing else (`tests/`,
# `examples/`, `vendor/`, `crbench/`). Each file counts up to its first
# `#[cfg(test)]` line, so in-file unit-test modules are left out.
#
# With no argument the working tree is counted (tracked and new files,
# as on disk); with <ref>, the files of that commit. Informational: it
# exits 0 whatever the count.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ $# -ge 1 ]; then
  commit="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
  files() { git -C "$repo" ls-tree -r --name-only "$commit" -- crates src; }
  show() { git -C "$repo" show "$commit:$1"; }
else
  # Deleted but still tracked files are skipped.
  files() {
    git -C "$repo" ls-files --cached --others --exclude-standard -- crates src |
      while read -r f; do if [ -f "$repo/$f" ]; then echo "$f"; fi; done
  }
  show() { cat "$repo/$1"; }
fi

files | grep -E '^(crates/[^/]+/src|src)/.*\.rs$' | sort |
  while read -r f; do
    n="$(show "$f" </dev/null | awk '/^[[:space:]]*#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }')"
    case "$f" in
      crates/*) unit="${f#crates/}"; unit="${unit%%/*}" ;;
      *) unit="(root)" ;;
    esac
    echo "$unit $n"
  done |
  awk '{ sum[$1] += $2; total += $2 }
       END {
         for (u in sum) printf "%-12s %7d\n", u, sum[u] | "sort"
         close("sort")
         printf "%-12s %7d\n", "total", total
       }'
