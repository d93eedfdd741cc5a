#!/usr/bin/env bash
# Seed-swarm DST exploration: N seeds across every fault profile, with
# automatic shrinking of any failure to a replayable JSON reproducer.
#
# Usage: scripts/swarm.sh [SEEDS|--nightly] [extra swarm flags...]
#   scripts/swarm.sh                  # 64 seeds x all profiles
#   scripts/swarm.sh 256              # bigger sweep
#   scripts/swarm.sh --nightly        # 1000 seeds x all profiles — the
#                                     # nightly soak; the calendar event
#                                     # queue makes this a minutes-scale
#                                     # run, not an hours-scale one
#   scripts/swarm.sh 16 --mutate      # demonstrate the oracle catching
#                                     # the broken-fencing mutation
#   scripts/swarm.sh 16 --world split --profiles split_chaos
#   scripts/swarm.sh 8 --replay target/swarm/repro-chaos-lossy_net-2.json
#
# Reproducers land in target/swarm/ and replay with:
#   cargo run --release -p sm-bench --bin swarm -- --replay <file>
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-64}"
if [[ "$SEEDS" == "--nightly" ]]; then
  SEEDS=1000
fi
shift || true

exec cargo run --release -q -p sm-bench --bin swarm -- \
  --seeds "$SEEDS" --out target/swarm "$@"
