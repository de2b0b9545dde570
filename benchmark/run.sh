#!/usr/bin/env bash
# The benchmark's one command: build `repro` and `hbbench` in release mode,
# then run `hbbench` with the arguments given.
#
#   benchmark/run.sh [--seed S] [--seconds T]               every workload, end to end, then traced
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                                           one workload; the last line of stdout is the result JSON
#   benchmark/run.sh compare A.json B.json                  judge results B against results A
#
# Both builds share one target directory: $CARGO_TARGET_DIR if set, else
# benchmark/target. Cargo's own output goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p scenarios --bin repro
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/hbbench" "$@"
