#!/bin/bash
# What adding a plan operator costs: count the places that must change.
#
#   scripts/plan_variant_sites.sh [ref]
#
# Copies the working tree (or <ref>, via `git archive`) to a temp dir,
# appends a `Throwaway` variant to `LogicalPlan`, runs
# `cargo check --offline --workspace --all-targets` there and prints:
#
#   * every non-exhaustive-match site (E0004) the new variant breaks,
#     de-duplicated by file:line (the lib and lib-test builds report each
#     site twice), and their total;
#   * every catch-all arm over `LogicalPlan` in library code (each file up
#     to its first `#[cfg(test)]`): the compiler lets a new variant through
#     these without a word. An arm that hands the node back or does
#     nothing (`other => other`, `_ => {}`) is a *silent traversal* — the
#     new variant is not visited; an arm that does something else is a
#     semantic fallback, and should say in a comment why it is safe for
#     every variant.
#
# Exits non-zero (a CI gate) when there is any silent traversal, or when
# more than MAX_SITES matches break: adding an operator must not get
# more expensive than it is today.
#
# The check builds into target/plan-variant-sites (or $SITES_TARGET), so
# a second run only recompiles the workspace's own crates.
set -euo pipefail

MAX_SITES=12

repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

if [ $# -ge 1 ]; then
  git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$1^{commit}")" | tar -x -C "$work"
else
  # Tracked and new files as they are on disk; deleted ones are skipped.
  git -C "$repo" ls-files -z --cached --others --exclude-standard |
    tar -c -C "$repo" --null --ignore-failed-read -T - 2>/dev/null | tar -x -C "$work"
fi

logical="$work/crates/relation/src/plan/logical.rs"
python3 - "$logical" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().split("\n")
start = lines.index("pub enum LogicalPlan {")
end = next(i for i in range(start, len(lines)) if lines[i] == "}")
lines.insert(end, "    Throwaway,")
open(path, "w").write("\n".join(lines))
EOF

log="$work/check.log"
CARGO_TARGET_DIR="${SITES_TARGET:-$repo/target/plan-variant-sites}" \
  cargo check --offline --workspace --all-targets --message-format short \
  --manifest-path "$work/Cargo.toml" >"$log" 2>&1 || true

python3 - "$work" "$log" "$MAX_SITES" <<'EOF'
import pathlib, re, sys

work, log, max_sites = pathlib.Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sites = set()
for line in open(log):
    m = re.match(r"(\S+?\.rs):(\d+):\d+: error\[E0004\]", line)
    if m:
        path = pathlib.Path(m.group(1))
        if path.is_absolute():
            path = path.relative_to(work)
        sites.add((str(path), int(m.group(2))))
print(f"non-exhaustive matches a new LogicalPlan variant breaks: {len(sites)}")
for path, line in sorted(sites):
    print(f"  {path}:{line}")

catch_all = re.compile(r"^(\s*)(_|[a-z_][a-z0-9_]*)\s*=>\s*(.*)$")
silent, fallback = [], []
for path in sorted(work.glob("crates/*/src/**/*.rs")):
    text = path.read_text().split("\n")
    cut = next((i for i, l in enumerate(text) if l.strip() == "#[cfg(test)]"), len(text))
    text = text[:cut]
    for i, l in enumerate(text):
        m = catch_all.match(l)
        if not m:
            continue
        indent, name, body = m.group(1), m.group(2), m.group(3).rstrip(",").strip()
        # The arm before it at the same indentation names the scrutinee's type.
        prev = None
        for j in range(i - 1, -1, -1):
            t = text[j]
            if not t.strip() or len(t) - len(t.lstrip()) != len(indent):
                continue
            s = t.strip()
            if s[0] in "})]" or s.startswith("//"):
                continue
            prev = s
            break
        if not prev or "LogicalPlan::" not in prev:
            continue
        site = f"{path.relative_to(work)}:{i + 1}"
        if body in (name, "{}", "()", "{"):
            if body == "{" and text[i + 1].strip() != "}":
                fallback.append(f"{site}  {l.strip()}")
                continue
            silent.append(f"{site}  {l.strip()}")
        else:
            fallback.append(f"{site}  {l.strip()}")
print(f"silent traversals (catch-all arms that pass a new variant through unvisited): {len(silent)}")
for s in silent:
    print(f"  {s}")
print(f"semantic fallbacks (catch-all arms with their own behaviour): {len(fallback)}")
for s in fallback:
    print(f"  {s}")
if not sites:
    sys.exit("no E0004 site found: did the throwaway variant fail to build for another reason?")
if silent or len(sites) > max_sites:
    sys.exit(f"FAIL: {len(silent)} silent traversals (allowed 0), {len(sites)} sites (allowed {max_sites})")
EOF
