#!/usr/bin/env bash
# A/A check: two interleaved sets of full runs of the same build must
# agree. For every workload and end-to-end metric it prints both set
# medians, their relative difference, and each set's spread (the
# distance between the quartiles as a share of the median), and applies
# two gates:
#
#   issue   the set medians differ by at most half of the bound ISSUE 12
#           fixed for the metric (10% set-up, 5% memory, 10% rates), that
#           is by 5%, 2.5% and 5%;
#   driver  the spread of single runs within a set stays within the
#           metric's bound in BENCHMARK.json (set-up time is exempt), and
#           the second median is not worse than the first by more than
#           that bound. This is what the driver accepts the benchmark by.
#
#   bench/aa.sh [runs-per-set (default 5)] [workload ...]
#
# Run from the repo root. Every run uses another seed, as the driver's
# own check does; run i of both sets shares seed i. A run over all
# workloads rewrites bench/aa-observed.json, the record of the observed
# differences that stands next to the bounds.
set -euo pipefail

runs=${1:-5}
shift || true
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-bench/target}
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

exec python3 - "$runs" "$@" <<'EOF'
import json, statistics, subprocess, sys, os

ISSUE_BOUND = {"setup_s": 0.10, "peak_rss_mb": 0.05, "work_per_s": 0.10}

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
every = [w["name"] for w in spec["workloads"]]
workloads = sys.argv[2:] or every
seconds = str(spec["run_seconds"])
binary = os.path.join(os.environ["CARGO_TARGET_DIR"], "release", "sm-perfbench")

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}

# values[workload][set][metric] = one value per run
values = {w: [{}, {}] for w in workloads}
for i in range(1, runs + 1):
    for which in (0, 1):
        for w in workloads:
            for name, value in run(w, i).items():
                values[w][which].setdefault(name, []).append(value)
            print(f"run {i} set {'AB'[which]} {w} done", file=sys.stderr)

os.makedirs("bench/out", exist_ok=True)
json.dump(values, open("bench/out/aa-values.json", "w"), indent=1)

def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)

bad = 0
observed = []
print(f"{'workload':18} {'metric':12} {'median A':>12} {'median B':>12} {'diff':>7} {'spread A':>8} {'spread B':>8} {'issue/2':>7} {'bound':>6}")
for w in workloads:
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        a, b = (values[w][s][name] for s in (0, 1))
        ma, mb = statistics.median(a), statistics.median(b)
        diff = abs(mb - ma) / ma
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flags = []
        if diff > ISSUE_BOUND[name] / 2:
            flags.append("issue: set medians differ by more than half the issue's bound")
        if worse > bound:
            flags.append("driver: second median worse than the first by more than the bound")
        if name != "setup_s" and max(sa, sb) > bound:
            flags.append("driver: spread wider than the bound")
        bad += len(flags)
        print(f"{w:18} {name:12} {ma:12.6g} {mb:12.6g} {diff:7.2%} {sa:8.2%} {sb:8.2%} {ISSUE_BOUND[name] / 2:7.1%} {bound:6.0%}"
              + "".join(f"  <-- {f}" for f in flags))
        observed.append({
            "workload": w, "metric": name, "median_a": ma, "median_b": mb,
            "difference": round(diff, 4), "spread_a": round(sa, 4), "spread_b": round(sb, 4),
            "issue_bound": ISSUE_BOUND[name], "bound": bound})
if workloads == every:
    record = {
        "claim": None,
        "what": "A/A of one build: two interleaved sets, another seed each run; "
                "difference is between set medians, spread is the quartile distance of a set over its median",
        "cores": os.cpu_count(), "runs_per_set": runs, "run_seconds": spec["run_seconds"],
        "passed": bad == 0, "observed": observed}
    json.dump(record, open("bench/aa-observed.json", "w"), indent=1)
    print("wrote bench/aa-observed.json", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
