#!/usr/bin/env sh
# Where a workload's CPU time goes, by sampling, on a box without perf:
# builds `repro` (or, for the sharded workloads, `hbbench`) with line tables
# in a target directory of its own (the optimizer sees the same code as a
# plain release build), builds the sprof sampler (tools/sprof), runs the
# workload's command line under it RUNS times and prints the pooled
# by-crate / self / inline-inclusive tables.
# Not a CI gate: a tool for choosing and checking optimisations (see
# EXPERIMENTS.md, "Where the time goes, by sampling").
#
# Usage: ci/profile.sh <workload> [sprof.py options]   (from the repo root)
#   workload: tiny_sims | dumbbell_figures | weather_tcp | weather_halfback
#             | sharded_dense_t1 | sharded_dense_t2 — the `hbbench` workloads,
#             as the command line `hbbench` spawns for each (four are one
#             `repro` command, the sharded pair is `hbbench child`), at the
#             benchmark's sizes and its default seed.
#   RUNS=5    runs pooled. The kernel delivers ITIMER_PROF on its own tick
#             (250 Hz here), so one 1-2 s run is only a few hundred samples.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/target/profile"
runs="${RUNS:-5}"
[ $# -ge 1 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
workload="$1"
shift

# hbbench's default seed is 4801; its tiny_sims maps that to simcheck seed 2
# (entry 4801 % 16 of a list of seeds vetted to have no oracle finding).
manifest="$root/Cargo.toml"
build="-p scenarios --bin repro"
target="$work"
bin=repro
out_flag="--out"
case "$workload" in
    tiny_sims) args="simcheck --seed 2 --cases 5000 --jobs 2" ;;
    dumbbell_figures) args="fig12 fig16 aqm multihop --quick --jobs 2" ;;
    weather_tcp) args="weather --scheme TCP --minutes 15 --seed 4801" ;;
    weather_halfback) args="weather --scheme Halfback --minutes 15 --seed 4801" ;;
    sharded_dense_t1 | sharded_dense_t2)
        # benchmark/ is a workspace of its own: its build gets a target
        # directory of its own. The child writes no files.
        manifest="$root/benchmark/Cargo.toml"
        build=""
        target="$work/bench"
        bin=hbbench
        out_flag=""
        args="child sharded_dense --hosts 176 --threads ${workload#sharded_dense_t} --seed 4801"
        ;;
    *) echo "unknown workload '$workload'" >&2; exit 2 ;;
esac

# shellcheck disable=SC2086
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$manifest" $build
cc -O2 -shared -fPIC -o "$work/libsprof.so" "$root/tools/sprof/sprof.c"

samples=""
i=1
while [ "$i" -le "$runs" ]; do
    out="$work/$workload.$i"
    rm -rf "$out"
    # shellcheck disable=SC2086
    SPROF_OUT="$out.sprof" LD_PRELOAD="$work/libsprof.so" \
        "$target/release/$bin" $args ${out_flag:+"$out_flag" "$out"} >/dev/null 2>&1 ||
        echo "warning: run $i of '$workload' exited $?" >&2
    samples="$samples $out.sprof"
    i=$((i + 1))
done
# shellcheck disable=SC2086
python3 "$root/tools/sprof/sprof.py" "$@" $samples
