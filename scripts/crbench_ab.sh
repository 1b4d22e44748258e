#!/bin/bash
# Paired A/B of the benchmark: the working tree against a base ref.
#
#   scripts/crbench_ab.sh <base-ref> [workload...]
#
# Extracts <base-ref> into its own directory (`git archive`, so no
# worktree is registered), builds crbench in both trees — each into its
# own target dir — and runs ABBA-ordered pairs: pair i uses one fresh
# seed for both sides, and even pairs run the base first, odd pairs the
# change, so "whichever side runs second is slower" cancels. Each run is
# `crbench/run.sh --workload W --seed S --seconds T` of that tree,
# unchanged. Then, per workload and end-to-end metric (directions from
# BENCHMARK.json), it prints:
#
#   ratio    median over pairs of change/base
#   wins     pairs the change was better in, of n
#   p        two-sided sign test of the wins
#   iqr/med  the base's own interquartile range over its median
#   verdict  "better"/"worse" when wins are >= 90% (<= 10%) of the pairs
#            and the median difference exceeds the base's IQR;
#            "-" (not resolved) otherwise
#
# Each run's `#` notes (crbench's stderr) are kept beside its metrics;
# where they hold the durable workload's checkpoint note, the table is
# followed by each side's quartiles of its median checkpoint time, and
# where they hold crbench's `read kind bands` note, by each side's median
# over runs of each read kind's median latency and of its share of the
# reads (the width of its start–end span in that note) — so a per-layer
# or per-kind move comes from the same paired runs as the claim, and a
# faster kind that moves requests into another band (any rec under 1 ms
# counts as `rec_cached`) shows as a change of shares, not a slowdown.
#
# Each run lasts the benchmark's own `run_seconds` (BENCHMARK.json).
# Workloads default to all four. Knobs (environment):
#   PAIRS=10 (at least 10)  SEED_BASE=<epoch-derived>  AB_DIR=target/crbench-ab
# Raw results (one JSON line per run) go to $AB_DIR/results-<stamp>.jsonl;
# `scripts/crbench_ab.sh --report <file>` re-prints the table from one.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

report() {
  python3 - "$1" "$repo/BENCHMARK.json" <<'EOF'
import json, math, re, statistics, sys
from collections import defaultdict

runs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = (len(xs) - 1) * p
        lo, hi = math.floor(k), math.ceil(k)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

CHECKPOINT_NOTE = re.compile(r"checkpoints \(information only\): \d+ in the window, median ([0-9.]+) ms")

def checkpoint_ms(run):
    for note in run.get("notes", []):
        m = CHECKPOINT_NOTE.search(note)
        if m:
            return float(m.group(1))
    return None

KIND_BAND = re.compile(r"(\S+) ([0-9.]+)–([0-9.]+)% \(([0-9.]+) ms\)")

def kind_medians(run):
    """Each read kind's (median ms, share of reads in %), the share being
    the width of the kind's start–end span in the band note."""
    for note in run.get("notes", []):
        if "read kind bands:" in note:
            return {k: (float(ms), float(hi) - float(lo)) for k, lo, hi, ms
                    in KIND_BAND.findall(note.split("read kind bands:", 1)[1])}
    return {}

def sign_p(wins, n):
    k = min(wins, n - wins)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)

pairs = defaultdict(dict)
for r in runs:
    pairs[(r["workload"], r["pair"])][r["side"]] = r
for w in sorted({w for w, _ in pairs}):
    done = [p for (pw, _), p in sorted(pairs.items()) if pw == w and len(p) == 2]
    if not done:
        continue
    seeds = ",".join(str(p["base"]["seed"]) for p in done)
    print(f"\n{w}: {len(done)} pairs, seeds {seeds}")
    for side in ("base", "change"):
        f = sum(p[side]["failed"] for p in done)
        a = sum(p[side]["attempted"] for p in done)
        wrong = sum(not p[side]["correct"] for p in done)
        print(f"  {side:6} failed {f} of {a} operations; {wrong} runs not correct")
    print(f"  {'metric':14} {'ratio':>7} {'wins':>6} {'p':>7} {'iqr/med':>8}  verdict"
          f"   base q1/median/q3 | change q1/median/q3")
    for m, direction in better.items():
        got = [(p["base"]["metrics"][m], p["change"]["metrics"][m]) for p in done
               if m in p["base"]["metrics"] and m in p["change"]["metrics"]]
        if not got:
            continue
        n = len(got)
        up = direction == "higher"
        wins = sum((c > b) if up else (c < b) for b, c in got)
        ratio = statistics.median(c / b for b, c in got if b)
        q1, med, q3 = quartiles([b for b, _ in got])
        iqr = q3 - q1
        diff = statistics.median(c for _, c in got) - med
        verdict = "-"
        if abs(diff) > iqr and wins >= 0.9 * n:
            verdict = "better"
        elif abs(diff) > iqr and wins <= 0.1 * n:
            verdict = "worse"
        c1, cmed, c3 = quartiles([c for _, c in got])
        print(f"  {m:14} {ratio:7.3f} {wins:3}/{n:<2} {sign_p(wins, n):7.3f} "
              f"{iqr / med if med else float('nan'):8.3f}  {verdict:7}  "
              f"{q1:.4g}/{med:.4g}/{q3:.4g} | {c1:.4g}/{cmed:.4g}/{c3:.4g}")
    ck = [(checkpoint_ms(p["base"]), checkpoint_ms(p["change"])) for p in done]
    ck = [(b, c) for b, c in ck if b is not None and c is not None]
    if ck:
        b1, bmed, b3 = quartiles([b for b, _ in ck])
        c1, cmed, c3 = quartiles([c for _, c in ck])
        print(f"  checkpoint median ms (information only, {len(ck)} pairs): "
              f"base {b1:.4g}/{bmed:.4g}/{b3:.4g} | change {c1:.4g}/{cmed:.4g}/{c3:.4g}")
    kinds = [(kind_medians(p["base"]), kind_medians(p["change"])) for p in done]
    names = sorted({k for b, c in kinds for k in b if k in c})
    if names:
        print("  read kind median ms (information only, median over the pairs): base | change")
        for k in names:
            got = [(b[k][0], c[k][0]) for b, c in kinds if k in b and k in c]
            bmed = statistics.median(b for b, _ in got)
            cmed = statistics.median(c for _, c in got)
            ratio = cmed / bmed if bmed else float("nan")
            print(f"    {k:22} {bmed:8.3f} | {cmed:8.3f}  ({ratio:.3f}x, {len(got)} pairs)")
        print("  read kind share of reads % (information only, median over the pairs): base | change")
        for k in names:
            got = [(b[k][1], c[k][1]) for b, c in kinds if k in b and k in c]
            bmed = statistics.median(b for b, _ in got)
            cmed = statistics.median(c for _, c in got)
            print(f"    {k:22} {bmed:8.1f} | {cmed:8.1f}  ({cmed - bmed:+.1f} points)")
EOF
}

if [ "${1:-}" = "--report" ]; then
  report "$2"
  exit 0
fi
if [ $# -lt 1 ]; then
  sed -n '2,37p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

base_ref="$1"
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(browse_day sql_point analytics_recs write_storm_durable)
fi
pairs="${PAIRS:-10}"
if ((pairs < 10)); then
  echo "PAIRS must be at least 10: fewer cannot resolve a 9-of-10 win rate" >&2
  exit 2
fi
secs="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$repo/BENCHMARK.json")"
seed_base="${SEED_BASE:-$(( $(date +%s) % 100000 * 100 ))}"
ab_dir="${AB_DIR:-$repo/target/crbench-ab}"
mkdir -p "$ab_dir"
ab_dir="$(cd "$ab_dir" && pwd)"

sha="$(git -C "$repo" rev-parse --verify "$base_ref^{commit}")"
base_tree="$ab_dir/base-${sha:0:12}"
if [ ! -d "$base_tree" ]; then
  mkdir -p "$base_tree.tmp"
  git -C "$repo" archive "$sha" | tar -x -C "$base_tree.tmp"
  mv "$base_tree.tmp" "$base_tree"
fi

declare -A tree=([base]="$base_tree" [change]="$repo")
declare -A target=([base]="$ab_dir/target-base" [change]="$ab_dir/target-change")
for side in base change; do
  echo "# building crbench ($side: ${tree[$side]})" >&2
  CARGO_TARGET_DIR="${target[$side]}" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/crbench/Cargo.toml" --bin crbench
done

results="$ab_dir/results-$(date +%Y%m%d-%H%M%S).jsonl"
echo "# base $base_ref ($sha), $pairs pairs x ${secs}s, seeds from $seed_base; raw: $results" >&2

notes="$ab_dir/notes.$$"
run() { # side workload seed pair
  local line
  line="$(CARGO_TARGET_DIR="${target[$1]}" bash "${tree[$1]}/crbench/run.sh" \
    --workload "$2" --seed "$3" --seconds "$secs" 2>"$notes" | tail -n 1)" || true
  python3 -c '
import json, sys
side, workload, seed, pair, line, notes = sys.argv[1:]
try:
    r = json.loads(line)
except ValueError:
    r = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
r = {"side": side, "workload": workload, "seed": int(seed), "pair": int(pair),
     "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
     "metrics": {k: v["value"] for k, v in r["metrics"].items()},
     "notes": [l.rstrip("\n") for l in open(notes, errors="replace") if l.startswith("#")]}
print(json.dumps(r))' "$1" "$2" "$3" "$4" "$line" "$notes" >> "$results"
  rm -f "$notes"
  echo "# $2 pair $4 seed $3: $1 done" >&2
}

for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed_base + i))
    if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do run "$side" "$w" "$seed" "$i"; done
  done
done

report "$results"
