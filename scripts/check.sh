#!/usr/bin/env bash
# Full local gate: formatting, clippy, repo-specific lints, tests.
# Usage: scripts/check.sh [--fix]   (--fix applies rustfmt instead of checking)
set -euo pipefail
cd "$(dirname "$0")/.."

FIX=0
if [[ "${1:-}" == "--fix" ]]; then
  FIX=1
fi

step() { printf '\n== %s ==\n' "$*"; }

step "rustfmt"
if [[ "$FIX" == 1 ]]; then
  cargo fmt --all
else
  cargo fmt --all --check
fi

step "clippy (workspace lints: unwrap_used warn, dbg_macro/todo deny)"
if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets -- -D warnings -A clippy::unwrap_used
else
  echo "clippy not installed; skipping"
fi

step "rustdoc (no broken or private intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

step "sm-lint (determinism, robustness & closed-surface invariants; zero unwaived findings, U1 takes no waiver)"
report="$(cargo run -q -p sm-lint -- --json)" || {
  printf '%s\n' "$report"
  exit 1
}
# Both counts, so a waiver that appears or disappears shows in the log.
printf '%s\n' "$report" | grep -E '^ *"(unwaived|waived)":'

step "world golden (seeded traces of every kit world and the figure world, byte-identical)"
cargo test --release --test world_golden -q

step "figure gates of the figure world (Figs 17-19, normally --ignored)"
cargo test --release -q -p sm-bench --test figs -- --ignored fig17 fig18 fig19

step "tests (every target once, in debug: among them the chaos, DST, reconfig and split gates and the recorded router and simulator floors)"
cargo test --workspace -q

step "allocation budgets in a release build (a debug build re-solves to check every reused plan; here a reuse allocates per move)"
cargo test --release --test alloc_budget -q

step "scripts/pairs.sh parses"
bash -n scripts/pairs.sh

step "repo benchmark (bench/ compiles against the crates' pub items; its own tests; a 2 s traced smoke run per workload, exit 1 = a failed in-run check; on control_failover the map stage is gated against server_down, on control_rebalance, as the median of three runs, the load report against run_periodic and run_periodic against a fresh plan)"
cargo test --offline -q --manifest-path bench/Cargo.toml
workloads=(control_failover control_rebalance control_drain world_upgrade serve_steady)
# On one core serve_churn exits 2: it cannot measure, which is not a failure.
if [[ "$(nproc)" -ge 2 ]]; then
  workloads+=(serve_churn)
fi
for workload in "${workloads[@]}"; do
  if ! out="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 1 2>&1)"; then
    printf '%s\n' "$out" | grep -v '^{' >&2
    echo "bench smoke run of $workload failed" >&2
    exit 1
  fi
  # A map version costs what moved, not the fleet: taking, publishing and
  # installing one stays under a quarter of the failover that caused it.
  # Both sides are this one run's, so a slow host moves both.
  if [[ "$workload" == control_failover ]]; then
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
m = {k: v["value"] for k, v in json.load(sys.stdin)["metrics"].items()}
stage = (m["sm-core.current_map_ms"] + m["sm-routing.discovery_publish_us"] / 1000
         + m["sm-routing.install_map_ms"])
down = m["sm-core.server_down_ms"]
print(f"map stage {stage:.3f} ms against server_down {down:.3f} ms ({stage / down:.2f}, gate 0.25)")
sys.exit(stage >= 0.25 * down)'
  fi
  # A rebalance costs what changed and its search: the load report,
  # one walk of the kept loads, stays under 0.15 of the periodic run it
  # feeds, and the run on the problem and evaluator the orchestrator
  # keeps stays under 0.75 of the plan of a fresh input, the same search
  # of the same state, beside it. Both sides of a ratio are one run's, so
  # a slow host moves both; the gate reads the median ratio of three
  # runs, so that one run disturbed by a busy host does not decide it.
  if [[ "$workload" == control_rebalance ]]; then
    runs="$(printf '%s\n' "$out" | tail -n 1)"
    for _ in 2 3; do
      if ! more="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 2>&1)"; then
        printf '%s\n' "$more" | grep -v '^{' >&2
        echo "bench smoke run of $workload failed" >&2
        exit 1
      fi
      runs+=$'\n'"$(printf '%s\n' "$more" | tail -n 1)"
    done
    printf '%s\n' "$runs" | python3 -c '
import json, statistics, sys
runs = [{k: v["value"] for k, v in json.loads(line)["metrics"].items()} for line in sys.stdin]
def gate(part, whole, bound):
    ratios = [m[part] / m[whole] for m in runs]
    ratio = statistics.median(ratios)
    each = ", ".join("%.2f" % r for r in ratios)
    print(f"{part} against {whole}: median {ratio:.2f} of {each} (gate {bound})")
    return ratio < bound
report = gate("sm-core.report_load_ms", "sm-core.run_periodic_ms", 0.15)
periodic = gate("sm-core.run_periodic_ms", "sm-allocator.plan_periodic_ms", 0.75)
sys.exit(not (report and periodic))'
  fi
done

step "size ledger (non-test Rust LOC + pub items per crate; must match the last row of BENCH_size.json)"
scripts/loc.sh --check BENCH_size.json

printf '\nall checks passed\n'
