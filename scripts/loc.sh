#!/usr/bin/env bash
# Size ledger: non-test, non-comment Rust LOC and `pub` item count per
# crate (ROADMAP "least code" trajectory; recorded in BENCH_size.json).
#
# Usage: scripts/loc.sh [--check LEDGER] [REPO_ROOT]   (default: this checkout)
#
# With `--check BENCH_size.json` the script also fails unless every
# crate's counts (and the total) equal the last row of the ledger's
# trajectory — a change that moves the counts appends its row.
#
# Counted: every `crates/*/src/**/*.rs` line that is not blank, not a
# `//` comment, and not inside the file's trailing `#[cfg(test)]` module
# (the workspace convention: unit tests close the file). `pub` items are
# lines opening with `pub fn|struct|enum|trait|type|const|static|mod|use`
# (so `pub(crate)` and struct fields do not count).
set -euo pipefail
LEDGER=""
if [[ "${1:-}" == "--check" ]]; then
  LEDGER="$(realpath "${2:?--check needs the ledger file}")"
  shift 2
fi
ROOT="${1:-$(dirname "$0")/..}"
cd "$ROOT"

# Compares one line of the table with the ledger's last row (each row
# of the trajectory is one line of the file).
stale=0
check() {
  [[ -n "$LEDGER" ]] || return 0
  local want
  want="$(grep '"at":' "$LEDGER" | tail -n 1 |
    sed -n "s/.*\"$1\": {\"loc\": \([0-9]*\), \"pub\": \([0-9]*\)}.*/\1 \2/p")"
  if [[ "$want" != "$2 $3" ]]; then
    echo "  ^ $1: the ledger's last row records '${want:-nothing}', the tree has '$2 $3'" >&2
    stale=1
  fi
}

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
  check "$crate" "$loc" "$pubs"
  total_loc=$((total_loc + loc))
  total_pub=$((total_pub + pubs))
done
printf '%-14s %8d %6d\n' total "$total_loc" "$total_pub"
check total "$total_loc" "$total_pub"
if [[ "$stale" == 1 ]]; then
  echo "size ledger is stale: append this tree's row to $LEDGER" >&2
  exit 1
fi
