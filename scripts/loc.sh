#!/usr/bin/env bash
# Size ledger: non-test, non-comment Rust LOC and `pub` item count per
# crate (ROADMAP "least code" trajectory; recorded in BENCH_size.json).
#
# Usage: scripts/loc.sh [REPO_ROOT]     (default: this checkout)
#
# Counted: every `crates/*/src/**/*.rs` line that is not blank, not a
# `//` comment, and not inside the file's trailing `#[cfg(test)]` module
# (the workspace convention: unit tests close the file). `pub` items are
# lines opening with `pub fn|struct|enum|trait|type|const|static|mod|use`
# (so `pub(crate)` and struct fields do not count).
set -euo pipefail
ROOT="${1:-$(dirname "$0")/..}"
cd "$ROOT"

printf '%-14s %8s %6s\n' crate loc pub
total_loc=0
total_pub=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  read -r loc pubs < <(
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
      FNR == 1 { in_test = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
      in_test { next }
      /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      { loc++ }
      /^[[:space:]]*pub (async |unsafe |const )?(fn|struct|enum|trait|type|const|static|mod|use) / { pubs++ }
      END { print loc + 0, pubs + 0 }
    '
  )
  printf '%-14s %8d %6d\n' "$crate" "$loc" "$pubs"
  total_loc=$((total_loc + loc))
  total_pub=$((total_pub + pubs))
done
printf '%-14s %8d %6d\n' total "$total_loc" "$total_pub"
