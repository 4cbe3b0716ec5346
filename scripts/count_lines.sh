#!/usr/bin/env bash
# Non-test library lines, per crate and in total. The rule: every `.rs`
# file under `crates/*/src` except those under `bin/`, each counted up to
# (not including) its first line that starts with `#[cfg(test)]`, after
# any indentation. The anchor matters: a doc comment that mentions
# `#[cfg(test)]` mid-line does not end a file's library code.
#
# Run from anywhere: `bash scripts/count_lines.sh`.
set -eu
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -not -path '*/bin/*' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
                      !test { n++ }
                      END { print n + 0 }')
    crate=${src#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
