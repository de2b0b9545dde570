#!/usr/bin/env bash
# Checks the benchmark itself (root CI does not see benchmark/): formatting,
# lints and tests of the package, then an A/A run — two full sets of the same
# build must agree within the benchmark's own bounds, with every exact metric
# and every digest identical.
#
#   benchmark/check.sh [--seed S] [--seconds T]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --release --manifest-path "$manifest"
out="$here/out"
"$here/run.sh" "$@" --out "$out/check.a.json"
"$here/run.sh" "$@" --out "$out/check.b.json"
"$here/run.sh" compare "$out/check.a.json" "$out/check.b.json"
