#!/usr/bin/env bash
# Paired A/B of the benchmark: a base revision against the working tree.
#
#   scripts/ab.sh <rev> [workload] [pairs]
#
# Builds the benchmark (`benchmark/`, as BENCHMARK.json runs it) twice,
# `--offline` and in release mode: A from a `git archive` of <rev> in a
# temp directory, B from the working tree (HEAD plus any tracked change,
# via `git stash create`; stage new files first). Then it runs each
# workload (every one in BENCHMARK.json, or the one named) `pairs` times
# per side (default 10), `--seed 7 --trace 0` for BENCHMARK.json's
# `run_seconds`, alternating which side runs first. A run that fails or
# whose last line is not JSON stops the script. It prints, under the
# host line, every end-to-end metric's median on each side, the ratio
# B / A and how many pairs B won (better by the metric's direction in
# BENCHMARK.json), and writes every run and that summary to
# target/ab/<rev>-<workload or all>.json. Nothing
# under benchmark/ in the checkout is written: builds go to target/ab,
# results to a temp dir.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 || $1 == -* ]]; then
    echo "usage: $0 <rev> [workload] [pairs]" >&2
    exit 2
fi
rev=$1
only=${2:-}
pairs=${3:-10}
seed=7
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "ab: pairs must be a whole number above 0, not '$pairs'" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root" || exit
base=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "ab: '$rev' is not a commit" >&2
    exit 2
}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
head=$(git -c user.name=ab -c user.email=ab@localhost stash create)
mkdir -p "$work/a" "$work/b" target/ab
git archive "$base" | tar -x -C "$work/a"
git archive "${head:-HEAD}" | tar -x -C "$work/b"

workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
if [ -n "$only" ]; then
    if [[ " $workloads " != *" $only "* ]]; then
        echo "ab: no workload '$only' in BENCHMARK.json ($workloads)" >&2
        exit 2
    fi
    workloads=$only
fi

for side in a b; do
    echo "== building $side" >&2
    CARGO_TARGET_DIR="$root/target/ab/$side" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
done

# one run: side, workload; appends the driver line, tagged, to runs.jsonl
run() {
    local line
    line=$("$root/target/ab/$1/release/gridagg-benchmark" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$work/out-$1" | tail -n 1) || {
        echo "ab: side $1 failed on $2" >&2
        exit 1
    }
    if [[ $line != \{* ]]; then
        echo "ab: side $1 printed no JSON on $2: $line" >&2
        exit 1
    fi
    printf '{"side":"%s","workload":"%s","result":%s}\n' "$1" "$2" "$line" >>"$work/runs.jsonl"
}

for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        echo "== $w pair $((i + 1)) / $pairs" >&2
        if ((i % 2 == 0)); then
            run a "$w"
            run b "$w"
        else
            run b "$w"
            run a "$w"
        fi
    done
done

out="target/ab/$(git rev-parse --short "$base")-${only:-all}.json"
python3 - "$work" "$base" "${head:-HEAD}" "$out" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

work, base, head, out, seed, seconds = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
runs = [json.loads(line) for line in open(f"{work}/runs.jsonl")]
host = json.load(open(f"{work}/out-b/" + next(
    f"result-{r['workload']}-trace0.json" for r in runs)))["host"]
print(f"host: {host['cores']} cores, {host['cpu']}, {host['os']}")
print(f"A = {base[:12]}, B = the working tree; --seed {seed} --seconds {seconds} --trace 0")
summary = []
for w in dict.fromkeys(r["workload"] for r in runs):
    side = {s: [r["result"] for r in runs if r["workload"] == w and r["side"] == s] for s in "ab"}
    print(f"\n{w} ({len(side['a'])} pairs)")
    print(f"  {'metric':<18} {'A median':>14} {'B median':>14} {'B / A':>8}  B wins")
    for name, low in lower.items():
        a = [r["metrics"][name]["value"] for r in side["a"]]
        b = [r["metrics"][name]["value"] for r in side["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum((y < x) if low else (y > x) for x, y in zip(a, b))
        ratio = mb / ma if ma else None
        shown = f"{ratio:.4f}" if ratio is not None else "-"
        print(f"  {name:<18} {ma:>14.6g} {mb:>14.6g} {shown:>8}  {wins} / {len(a)}")
        summary.append({"workload": w, "metric": name, "a_median": ma, "b_median": mb,
                        "ratio": ratio, "b_wins": wins, "pairs": len(a)})
    both = side["a"] + side["b"]
    failed, wrong = sum(r["failed"] for r in both), sum(not r["correct"] for r in both)
    if failed or wrong:
        print(f"  {failed} failed operations, {wrong} runs not correct")
json.dump({"host": host, "base": base, "head": head, "seed": int(seed),
           "seconds": float(seconds), "summary": summary, "runs": runs},
          open(out, "w"), indent=1)
print(f"\nab: wrote {out}")
EOF
