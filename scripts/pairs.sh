#!/usr/bin/env bash
# Parent against change, the way a performance claim is judged: the repo
# benchmark (bench/, BENCHMARK.json) built from a parent commit and from
# this tree, run in interleaved pairs on this host.
#
#   scripts/pairs.sh <parent-ref> [pairs (default 10)] [workload ...]
#
# Run from anywhere in the repo, with nothing else running. The parent's
# files are unpacked with `git archive` under target/pairs/<sha> (no
# worktree is registered, nothing outside target/ and bench/target/ is
# written) and both bench/ packages are built offline. Pair i uses seed
# i for both sides — one untraced run of BENCHMARK.json's run_seconds
# each — and which side runs first alternates with i. Then one traced
# run per side (seed 1) gives the per-layer numbers and the exact counts.
#
# Prints, as one JSON object in the schema of a BENCH_control.json row:
# per workload and end-to-end metric the quartiles and median of each
# side, change_over_parent, the pairs the change won, and whether the
# change's median is within the metric's bound — read from
# BENCHMARK.json, which this script never writes. Progress goes to
# stderr; every run's values are kept in target/pairs/runs.json.
set -euo pipefail
cd "$(dirname "$0")/.."

parent_ref=${1:?usage: scripts/pairs.sh <parent-ref> [pairs=10] [workload ...]}
pairs=${2:-10}
shift || true
shift || true

parent_sha=$(git rev-parse --short "$parent_ref^{commit}")
out=target/pairs
unset CARGO_TARGET_DIR
mkdir -p "$out/bin"
if [[ ! -d $out/$parent_sha ]]; then
  mkdir "$out/$parent_sha"
  git archive "$parent_sha" | tar -x -C "$out/$parent_sha"
fi
for side in parent change; do
  manifest=bench/Cargo.toml
  [[ $side == parent ]] && manifest=$out/$parent_sha/bench/Cargo.toml
  echo "building $side ($manifest)" >&2
  cargo build --release --offline --quiet --manifest-path "$manifest"
  cp "$(dirname "$manifest")/target/release/sm-perfbench" "$out/bin/$side"
done

exec python3 - "$parent_sha" "$pairs" "$@" <<'EOF'
import json, os, statistics, subprocess, sys

parent_sha, pairs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[3:] or [w["name"] for w in spec["workloads"]]
seconds = str(spec["run_seconds"])
SIDES = ("parent", "change")
# The per-layer counts that must repeat exactly, side to side.
EXACT = ("sm-core.rpcs_per_move", "sm-core.moves_per_op", "sm-core.inflight_max",
         "sm-core.snapshot_bytes", "sm-solver.evals_per_plan", "op.upgrade_sim_s",
         "sm-apps.world_forwarded", "sm-sim.steps")

def run(side, workload, seed, trace):
    # In the side's own directory: a traced run writes bench/out/ there.
    cwd = os.path.join("target/pairs/runs", side)
    os.makedirs(cwd, exist_ok=True)
    out = subprocess.run(
        [os.path.abspath(f"target/pairs/bin/{side}"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd)
    if out.returncode not in (0, 1):
        sys.exit(f"{side} {workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["cores"] = next(
        (int(word[6:]) for word in lines[0].split() if word.startswith("cores=")), None)
    return result

def sig(x):
    return float(f"{x:.6g}")

def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"q1": sig(q1), "median": sig(median), "q3": sig(q3)}

# runs[workload][side] = one result per pair
runs = {w: {side: [] for side in SIDES} for w in workloads}
cores = None
for seed in range(1, pairs + 1):
    order = SIDES if seed % 2 else SIDES[::-1]
    for w in workloads:
        for side in order:
            result = run(side, w, seed, 0)
            cores = result["cores"]
            runs[w][side].append(result)
            rate = result["metrics"]["work_per_s"]["value"]
            print(f"pair {seed} {w} {side}: {rate:.6g} /s", file=sys.stderr)
json.dump(runs, open("target/pairs/runs.json", "w"), indent=1)

row = {"parent": parent_sha, "cores": cores, "seeds": list(range(1, pairs + 1)),
       "pairs_per_workload": pairs, "run_seconds": int(seconds), "end_to_end": {}}
for w in workloads:
    cells = row["end_to_end"][w] = {}
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        p, c = ([r["metrics"][name]["value"] for r in runs[w][side]] for side in SIDES)
        mp, mc = statistics.median(p), statistics.median(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        worse_by = max(0.0, (mc - mp) / mp if lower else (mp - mc) / mp)
        cells[name] = {
            "parent": quartiles(p), "change": quartiles(c),
            "change_over_parent": round(mc / mp, 4),
            "change_better_in_pairs": f"{wins}/{pairs}",
            "bound": bound, "worse_by": round(worse_by, 4),
            "within_bound": worse_by <= bound,
        }
    cells["failed_over_attempted"] = {
        side: "{}/{}".format(sum(r["failed"] for r in runs[w][side]),
                             sum(r["attempted"] for r in runs[w][side]))
        for side in SIDES}

layers = row["per_layer_one_traced_run_per_side_seed_1"] = {}
exact = row["exact_counts_seed_1"] = {}
for w in workloads:
    traced = {side: run(side, w, 1, 1)["metrics"] for side in SIDES}
    print(f"traced {w} done", file=sys.stderr)
    for name, m in traced["parent"].items():
        p, c = m["value"], traced["change"].get(name, {}).get("value")
        if "." not in name or (p == 0 and not c):
            continue  # an end-to-end metric, or a layer the workload does not enter
        if name in EXACT:
            exact.setdefault(w, {})[name] = {"parent": p, "change": c, "identical": p == c}
        else:
            layers.setdefault(w, {})[name] = {"parent": sig(p), "change": c and sig(c)}

print(json.dumps(row))
EOF
