#!/usr/bin/env bash
# A/A self-check: two sets of N end-to-end runs of every workload on one
# commit, each run under another --seed. Per metric x workload it compares
# the two medians against the metric's bound in ../BENCHMARK.json and the
# spread of each set (interquartile range over median) against the same
# bound, writes the table to benchmark/AA.md, and exits non-zero on a miss.
#
#   benchmark/aa.sh [N]        (default 10 runs per set and workload)
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"

seed=0
for set in A B; do
    for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
        for _ in $(seq "$runs"); do
            seed=$((seed + 1))
            echo "set $set: $workload --seed $seed" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$seed" \
                --seconds "$(jq -r .run_seconds BENCHMARK.json)" --trace 0 \
                2>"$out/$set-$workload-$seed.err" | tail -n 1 >"$out/$set-$workload-$seed.json"
        done
    done
done

python3 - "$out" "$runs" <<'EOF'
import glob, json, os, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failures = []
lines = [
    "# A/A self-check",
    "",
    f"Two sets of {runs} runs per workload of `benchmark/run.sh` on one commit, a new `--seed` every run",
    f"(`benchmark/aa.sh {runs}`). *worse* is how far set B's median is on the bad side of set A's;",
    "*spread* is the interquartile range of a set over its median",
    "(`statistics.quantiles(values, n=4)`). Both must stay within the metric's bound;",
    "`setup_s` is held to its bound on *worse* only.",
    "",
]

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

for w in (w["name"] for w in bench["workloads"]):
    sets = {}
    for s in "AB":
        docs = [json.load(open(p)) for p in sorted(glob.glob(f"{out}/{s}-{w}-*.json"))]
        bad = [d for d in docs if not d["correct"] or d["failed"]]
        if len(docs) != runs or bad:
            failures.append(f"{w} set {s}: {len(docs)} results, {len(bad)} incorrect")
        sets[s] = docs
    lines += [f"## {w}", "", "| metric | unit | median A | median B | worse | spread A | spread B | bound | |",
              "|---|---|---|---|---|---|---|---|---|"]
    for m in bench["end_to_end"]:
        a = [d["metrics"][m["name"]]["value"] for d in sets["A"]]
        b = [d["metrics"][m["name"]]["value"] for d in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        if not ok:
            failures.append(f"{w} {m['name']}: worse {worse:+.2%}, spreads {sa:.2%} / {sb:.2%}, bound {m['bound']:.1%}")
        lines.append(f"| `{m['name']}` | {m['unit']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {sa:.2%} | {sb:.2%} "
                     f"| {m['bound']:.1%} | {'ok' if ok else '**MISS**'} |")
    lines.append("")

cpu = open("/proc/stat").readline().split()[1:9]
steal = int(cpu[7]) / sum(map(int, cpu))
where = {l.strip() for p in glob.glob(f"{out}/*.err") for l in open(p) if l.startswith("data directory")}
lines += ["## Box", "",
          f"- `nproc` = {os.cpu_count()}",
          f"- steal share since boot (`/proc/stat`) = {steal:.2%}",
          *(f"- {w}" for w in sorted(where)), ""]
lines.append("Result: " + ("every metric within its bound." if not failures else "MISSES — " + "; ".join(failures)))
open("benchmark/AA.md", "w").write("\n".join(lines) + "\n")
print("\n".join(lines))
sys.exit(1 if failures else 0)
EOF
