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

step "repo benchmark (bench/ compiles against the crates' pub items; its own tests; a 2 s traced smoke run per workload, exit 1 = a failed in-run check; where a time ratio is gated, the median of three runs: on control_failover the map stage against a fresh emergency plan, on control_rebalance the load report and run_periodic against a fresh periodic plan, on control_drain drain_server against settle)"
cargo test --offline -q --manifest-path bench/Cargo.toml
workloads=(control_failover control_rebalance control_drain world_upgrade serve_steady)
# On one core serve_churn exits 2: it cannot measure, which is not a failure.
if [[ "$(nproc)" -ge 2 ]]; then
  workloads+=(serve_churn)
fi
# One traced smoke run of a workload; prints its metrics line.
smoke() {
  local out
  if ! out="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload "$1" --seed 1 --seconds 2 --trace 1 2>&1)"; then
    printf '%s\n' "$out" | grep -v '^{' >&2
    echo "bench smoke run of $1 failed" >&2
    return 1
  fi
  printf '%s\n' "$out" | tail -n 1
}
for workload in "${workloads[@]}"; do
  runs="$(smoke "$workload")"
  case "$workload" in
    control_failover | control_rebalance | control_drain) ;;
    *) continue ;;
  esac
  # Both sides of a ratio are one run's, so a slow host moves both; the
  # gate reads the median ratio of three runs, so that one run disturbed
  # by a busy host does not decide it.
  for _ in 2 3; do
    runs+=$'\n'"$(smoke "$workload")"
  done
  printf '%s\n' "$runs" | python3 -c '
import json, statistics, sys
runs = [{k: v["value"] for k, v in json.loads(line)["metrics"].items()} for line in sys.stdin]
def gate(part, whole, bound, name=None):
    ratios = [(part(m) if callable(part) else m[part]) / m[whole] for m in runs]
    ratio = statistics.median(ratios)
    each = ", ".join("%.2f" % r for r in ratios)
    print(f"{name or part} against {whole}: median {ratio:.2f} of {each} (gate {bound})")
    return ratio < bound
def map_stage(m):
    return (m["sm-core.current_map_ms"] + m["sm-routing.discovery_publish_us"] / 1000
            + m["sm-routing.install_map_ms"])
gates = {
    # A map version costs what moved, not the fleet: taking, publishing
    # and installing one stays under half of a fresh emergency plan of
    # the same loss, a shadow solve that no orchestrator, scheduler or
    # map change moves. It reads 0.24-0.34; a map that copies every leaf
    # reads 1.6-2.7.
    "control_failover": lambda: gate(
        map_stage, "sm-allocator.plan_emergency_ms", 0.5, "map stage"),
    # A rebalance costs what changed and its search: the load report,
    # one walk of the kept loads, stays under 0.15 of a fresh periodic
    # plan of the same state (it reads 0.04-0.06; a report that books
    # every load as changed reads 0.33-0.51), and the run on the problem
    # and evaluator the orchestrator keeps stays under 0.75 of that
    # plan, the same search of the same state, beside it.
    "control_rebalance": lambda: all([
        gate("sm-core.report_load_ms", "sm-allocator.plan_periodic_ms", 0.15),
        gate("sm-core.run_periodic_ms", "sm-allocator.plan_periodic_ms", 0.75)]),
    # Choosing a drain'"'"'s targets costs less than moving them:
    # drain_server, one ranked walk of the fleet for all its picks,
    # stays under 0.4 of settling the moves it starts.
    "control_drain": lambda: gate("sm-core.drain_server_ms", "sm-core.settle_ms", 0.4),
}
sys.exit(not gates[sys.argv[1]]())' "$workload"
done

step "size ledger (non-test Rust LOC + pub items per crate; must match the last row of BENCH_size.json)"
scripts/loc.sh --check BENCH_size.json

printf '\nall checks passed\n'
