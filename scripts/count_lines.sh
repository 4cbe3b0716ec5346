#!/usr/bin/env bash
# Non-test library lines, per crate and in total. The rule: every `.rs`
# file under `crates/*/src` except those under `bin/`, each counted up to
# (not including) its first `#[cfg(test)]` line, at any indentation, that
# is directly followed by a `mod … {` line: the file's test module. A
# `#[cfg(test)]` on anything else (a test-only helper, counter or
# statement) and a doc comment that mentions `#[cfg(test)]` mid-line do
# not end a file's library code; both count as library lines.
#
# Run from anywhere: `bash scripts/count_lines.sh`.
set -eu
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -not -path '*/bin/*' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0; held = 0 }
                      test { next }
                      held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/ { test = 1; held = 0; next }
                      held { n++; held = 0 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
                      { n++ }
                      END { print n + 0 }')
    crate=${src#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
