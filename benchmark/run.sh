#!/usr/bin/env bash
# The benchmark's single entry point: builds the package from source
# (offline; into $CARGO_TARGET_DIR when set, else benchmark/target) and
# runs it. No arguments runs every workload (`all`); any arguments are
# passed through, e.g. `--workload open_hub --seed 7 --seconds 20 --trace 0`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ $# -gt 0 ] || set -- all
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
