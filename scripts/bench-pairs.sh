#!/usr/bin/env bash
# Measures a change against its parent with the frozen benchmark and
# writes the result as one BENCH_<pr>.json.
#
#	scripts/bench-pairs.sh [options] PARENT_DIR CHANGE_DIR [WORKLOAD...]
#
#	-pr N         write CHANGE_DIR/BENCH_N.json (required)
#	-pairs N      alternating pairs per named workload (default 10)
#	-aa N         also N pairs of the parent against itself (default 0)
#	-claim TEXT   the claim the file backs (default: none)
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Each is
# built once, through its own benchmarks/run.sh. Then:
#
#   - two sets of `-workload all -seed S -trace 0`: set 1 (seed 1)
#     runs the parent first, set 2 (seed 2) the change first, and each
#     set is judged by `-compare PARENT CHANGE`;
#   - for every WORKLOAD named, N pairs of single runs with seeds 1..N,
#     the parent first on odd seeds and the change first on even ones;
#   - with -aa M, for every WORKLOAD named, M pairs of the parent against
#     itself with seeds 1..M, the A/A noise floor.
#
# Every run keeps the benchmark's own length (run_seconds in BENCHMARK.json).
#
# The file has the keys about, claim, notes, sets, pairs and aa_pairs,
# plus a summary: per workload and metric, each side's median and
# quartiles over the pairs, the number of pairs the change won, the A/B
# shift (the change's median over the parent's, minus one) and, with
# -aa, the quartiles of the A/A pairs' relative differences (the second
# run over the first, minus one) beside it. Raw outputs stay
# under CHANGE_DIR/.bench_build/pairs. Needs bash, git and python3; it
# changes nothing under benchmarks/.
set -euo pipefail

usage() { sed -n '4,10p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

pr= pairs=10 aa=0 claim=
while [[ $# -gt 0 && $1 == -* ]]; do
	case $1 in
	-pr) pr=$2; shift 2 ;;
	-pairs) pairs=$2; shift 2 ;;
	-aa) aa=$2; shift 2 ;;
	-claim) claim=$2; shift 2 ;;
	*) usage ;;
	esac
done
[[ $# -ge 2 && -n $pr ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workloads=("$@")
work="$change/.bench_build/pairs"
rm -rf "$work"
mkdir -p "$work"

# label DIR prints the commit label of a checkout: its short HEAD, or
# "<parent>+uncommitted (non-test Go diff sha256 <12 hex>)" when the
# tree differs from HEAD, untracked files included. The hash covers the
# diff against the parent and every untracked non-test Go file.
parent_rev=$(git -C "$parent" rev-parse HEAD 2>/dev/null || echo unknown)
label() {
	local dir=$1 head
	head=$(git -C "$dir" rev-parse --short HEAD 2>/dev/null) || { echo unknown; return; }
	if [[ -z $(git -C "$dir" status --porcelain) ]]; then
		echo "$head"
		return
	fi
	local sum
	sum=$({
		git -C "$dir" diff "$parent_rev" -- '*.go' ':!*_test.go'
		git -C "$dir" ls-files -z --others --exclude-standard -- '*.go' ':!*_test.go' |
			while IFS= read -r -d '' f; do
				echo "untracked $f"
				cat "$dir/$f"
			done
	} 2>/dev/null | sha256sum | cut -c1-12)
	echo "$(git -C "$parent" rev-parse --short HEAD)+uncommitted (non-test Go diff sha256 $sum)"
}
parent_label=$(label "$parent")
change_label=$(label "$change")

# bench DIR ARGS... runs the benchmark of the tree at DIR from its root
# (the binary finds BENCHMARK.json from its working directory). The
# first call per tree goes through its own run.sh, which builds the
# binary; later calls reuse that binary.
declare -A built
bench() {
	local dir=$1
	shift
	if [[ -z ${built[$dir]:-} ]]; then
		built[$dir]=1
		(cd "$dir" && bash benchmarks/run.sh "$@")
	else
		(cd "$dir" && ./.bench_build/ginflow-benchmarks "$@")
	fi
}

# A side whose sessions fail its outcome check still writes its file;
# the failure shows in the file and in the compare verdict.
for set in 1 2; do
	order=(parent change)
	[[ $set == 2 ]] && order=(change parent)
	for side in "${order[@]}"; do
		dir=$parent
		[[ $side == change ]] && dir=$change
		echo "== set $set: $side" >&2
		bench "$dir" -workload all -seed "$set" -trace 0 \
			-out "$work/set$set-$side.json" >"$work/set$set-$side.log" 2>&1 || true
	done
	status=0
	bench "$change" -compare "$work/set$set-parent.json" "$work/set$set-change.json" \
		>"$work/set$set-compare.txt" 2>&1 || status=$?
	echo "$status" >"$work/set$set-compare.exit"
	cat "$work/set$set-compare.txt" >&2
done

for wl in ${workloads[@]+"${workloads[@]}"}; do
	for ((seed = 1; seed <= pairs; seed++)); do
		order=(parent change)
		((seed % 2 == 0)) && order=(change parent)
		for side in "${order[@]}"; do
			dir=$parent
			[[ $side == change ]] && dir=$change
			echo "== $wl seed $seed: $side" >&2
			bench "$dir" -workload "$wl" -seed "$seed" -trace 0 \
				>"$work/pair-$wl-$seed-$side.log" 2>&1 || true
		done
	done
done

# The A/A pairs run the parent's binary twice per seed: run a, then b.
for wl in ${workloads[@]+"${workloads[@]}"}; do
	for ((seed = 1; seed <= aa; seed++)); do
		for run in a b; do
			echo "== $wl A/A seed $seed: parent ($run)" >&2
			bench "$parent" -workload "$wl" -seed "$seed" -trace 0 \
				>"$work/aa-$wl-$seed-$run.log" 2>&1 || true
		done
	done
done

out="$change/BENCH_$pr.json"
python3 - "$work" "$out" "$change/BENCHMARK.json" "$parent_label" "$change_label" \
	"$pairs" "$aa" "$claim" ${workloads[@]+"${workloads[@]}"} <<'EOF'
import json, os, statistics, sys

work, out, spec_path, parent_label, change_label, pairs, aa, claim = sys.argv[1:9]
workloads = sys.argv[9:]
pairs = int(pairs)
aa = int(aa)
spec = json.load(open(spec_path))
seconds = spec["run_seconds"]
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
labels = {"parent": parent_label, "change": change_label}
notes = []

def last_json(path):
    for line in reversed(open(path).read().splitlines()):
        if line.strip().startswith("{"):
            return json.loads(line)
    return None

sets = []
for s in (1, 2):
    entry = {"seed": s, "order": "parent first" if s == 1 else "change first"}
    for side in ("parent", "change"):
        path = os.path.join(work, f"set{s}-{side}.json")
        if not os.path.exists(path):
            notes.append(f"set {s}: the {side} wrote no result file (see set{s}-{side}.log)")
            entry[side] = None
            continue
        res = json.load(open(path))
        res["commit"] = labels[side]
        entry[side] = res
        for name, run in sorted(res["workloads"].items()):
            e2e = run["end_to_end"]
            if not e2e["correct"] or e2e["failed"] > 0:
                notes.append(f"set {s}: {side} {name} correct={e2e['correct']} failed={e2e['failed']}")
    entry["compare"] = {
        "exit": int(open(os.path.join(work, f"set{s}-compare.exit")).read()),
        "output": open(os.path.join(work, f"set{s}-compare.txt")).read().splitlines(),
    }
    sets.append(entry)

pair_runs = []
for wl in workloads:
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            res = last_json(os.path.join(work, f"pair-{wl}-{seed}-{side}.log"))
            if res is None:
                notes.append(f"{wl} seed {seed}: the {side} printed no result")
                continue
            pair_runs.append({
                "workload": wl, "seed": seed, "side": side,
                "correct": res["correct"], "failed": res["failed"], "attempted": res["attempted"],
                "metrics": {k: v["value"] for k, v in sorted(res["metrics"].items())},
            })
            if not res["correct"] or res["failed"] > 0:
                notes.append(f"{wl} seed {seed}: {side} correct={res['correct']} failed={res['failed']}")

aa_runs = []
for wl in workloads:
    for seed in range(1, aa + 1):
        for run in ("a", "b"):
            res = last_json(os.path.join(work, f"aa-{wl}-{seed}-{run}.log"))
            if res is None:
                notes.append(f"{wl} A/A seed {seed}: run {run} printed no result")
                continue
            aa_runs.append({
                "workload": wl, "seed": seed, "run": run,
                "correct": res["correct"], "failed": res["failed"], "attempted": res["attempted"],
                "metrics": {k: v["value"] for k, v in sorted(res["metrics"].items())},
            })
            if not res["correct"] or res["failed"] > 0:
                notes.append(f"{wl} A/A seed {seed}: run {run} correct={res['correct']} failed={res['failed']}")

def rel(new, old):
    return new / old - 1 if old else 0.0

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

summary = {}
for wl in workloads:
    runs = {(p["seed"], p["side"]): p for p in pair_runs if p["workload"] == wl}
    seeds = sorted({seed for seed, side in runs if (seed, "parent") in runs and (seed, "change") in runs})
    if not seeds:
        continue
    summary[wl] = {}
    for metric, direction in better.items():
        cell = {"better": direction, "pairs": len(seeds)}
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([runs[(s, side)]["metrics"][metric] for s in seeds])
            cell[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1 if direction == "higher" else -1
        cell["change_wins"] = sum(
            1 for s in seeds
            if sign * (runs[(s, "change")]["metrics"][metric] - runs[(s, "parent")]["metrics"][metric]) > 0)
        cell["ab_shift"] = rel(cell["change"]["median"], cell["parent"]["median"])
        note = (f"{wl} over {len(seeds)} pairs: {metric} parent median {cell['parent']['median']:.4g} "
                f"(IQR {cell['parent']['q1']:.4g}-{cell['parent']['q3']:.4g}), change median "
                f"{cell['change']['median']:.4g} (IQR {cell['change']['q1']:.4g}-{cell['change']['q3']:.4g}); "
                f"the change wins {cell['change_wins']}/{len(seeds)}; A/B shift {cell['ab_shift']:+.1%}")
        aa_by = {(r["seed"], r["run"]): r for r in aa_runs if r["workload"] == wl}
        aa_seeds = sorted({seed for seed, run in aa_by if (seed, "a") in aa_by and (seed, "b") in aa_by})
        if aa_seeds:
            q1, med, q3 = quartiles([rel(aa_by[(s, "b")]["metrics"][metric], aa_by[(s, "a")]["metrics"][metric])
                                     for s in aa_seeds])
            cell["aa"] = {"pairs": len(aa_seeds), "median": med, "q1": q1, "q3": q3}
            note += f"; A/A over {len(aa_seeds)} pairs: IQR {q1:+.1%} to {q3:+.1%} (median {med:+.1%})"
        summary[wl][metric] = cell
        notes.append(note)

verdicts = ", ".join(f"set {e['seed']} exit {e['compare']['exit']}" for e in sets)
notes.insert(0, f"-compare verdicts (0 = no end-to-end metric worse than its bound): {verdicts}.")
if not any("correct=" in n or "no result" in n or "no result file" in n for n in notes):
    notes.insert(1, "Every run of both sets and of the pairs is correct: true with failed: 0.")
pair_text = (f" `pairs`: `-workload W -seed S -trace 0` with the binary each tree built, "
             f"seeds 1-{pairs}, parent first on odd seeds and change first on even ones, for "
             + ", ".join(workloads) + "." if workloads else " No pairs were run.")
if workloads and aa:
    pair_text += (f" `aa_pairs`: the parent's binary run twice per seed (a, then b), seeds 1-{aa}, "
                  "the A/A noise floor.")
doc = {
    "about": (f"Parent {parent_label} vs change {change_label}, written by scripts/bench-pairs.sh. "
              f"Every run keeps the benchmark's length (BENCHMARK.json run_seconds: {seconds:g} s). "
              "`sets`: `benchmarks/run.sh -workload all -seed S -trace 0 -out <file>` per side, "
              "set 1 parent first, set 2 change first; `compare` is `-compare <parent> <change>`."
              + pair_text + " `summary`: per workload and end-to-end metric over the pairs, each side's median "
              "and quartiles, the number of pairs the change won and `ab_shift` (change median / parent "
              "median - 1); with A/A pairs, `aa` holds the quartiles of b / a - 1 over them."),
    "claim": claim or None,
    "notes": notes,
    "sets": sets,
    "pairs": pair_runs,
    "aa_pairs": aa_runs,
    "summary": summary,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}", file=sys.stderr)
EOF
