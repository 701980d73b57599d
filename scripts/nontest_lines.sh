#!/usr/bin/env bash
# Non-test line count per source directory: each `.rs` file counts its
# lines before its first `#[cfg(test)]` (all of them if it has none).
# With no arguments, counts every crate's `src` and the root `src`.
#
#   scripts/nontest_lines.sh                # crates/*/src and src
#   scripts/nontest_lines.sh crates/core/src
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src src
total=0
for dir in "$@"; do
  n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }')
  printf '%-24s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
