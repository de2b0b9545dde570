#!/usr/bin/env sh
# Weather-service smoke: run the open-loop "internet weather" mode for 10
# simulated minutes, then enforce the four contracts the mode ships with
# (see crates/scenarios/src/weather.rs and DESIGN.md "Open-loop service
# mode"):
#
#   1. Output shape — windows.csv carries the halfback-weather-v1 header
#      and one well-formed row per window; weather.json parses (python3's
#      json.tool, a parser independent of the writer) and the
#      run sustained a service-scale arrival rate (>= 1M flows per
#      simulated hour at default utilization) with every flow accounted
#      for (started = completed + aborted + censored).
#   2. Bounded memory — the run's peak RSS (the "peak_rss_mb" machine
#      line of weather.json: the repro process's own VmHWM, whole MiB)
#      stays under a measured ceiling, and receivers were actually reaped;
#      an unbounded per-flow structure shows up here long before the 24 h
#      run OOMs. The ceiling comes from this exact run (x86-64 Linux,
#      glibc, release build): 35.1-35.4 MiB when the whole checkpoint was
#      built in one buffer and finished flows queued for a whole 60 s
#      window, 23.4-23.8 MiB with the checkpoint streamed to disk and the
#      completion bus drained after every arrival, ~10 MiB since a
#      finished receiver became a 48-byte record. 14 MiB is ~1.4x the
#      last, so the 144-byte receivers that wait out the reap grace, or
#      either buffer, coming back trips it. (The check used to read
#      ru_maxrss of a python launcher's child, which measured the
#      launcher: the kernel carries the parent's high-water mark across a
#      vfork'ed exec, and /bin/true read 13.7 MiB that way.)
#      The final weather.ckpt stays under a size ceiling too: 7,240,980 B
#      while the checkpoint re-expanded every finished receiver into a
#      full receiver, ~2.96 MB since it saves the 48-byte records the
#      hosts hold. 4,000,000 B is ~1.35x the latter, so re-expanded
#      receivers coming back trips it.
#   3. Kill/restore byte-identity — a second run killed at its first
#      checkpoint and resumed must reproduce windows.csv, weather.json
#      (minus the machine line), and the final checkpoint byte-for-byte.
#   4. Damaged checkpoints are refused — one byte flipped in the middle
#      of a killed run's weather.ckpt must make --resume exit non-zero on
#      the checksum: no panic, no length-sized allocation, no resumed run.
#
# Usage: ci/check_weather.sh  (from the repo root)
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cargo build --release --bin repro
run="${CARGO_TARGET_DIR:-target}/release/repro weather --minutes 10 --checkpoint-every 3"
ceiling_mb=14
ckpt_ceiling=4000000

# --- 1. Uninterrupted reference run -----------------------------------
$run --out "$dir/a" >&2

head -1 "$dir/a/windows.csv" | grep -q \
    '^window,t_end_s,started,completed,aborted,fct_ms_mean,fct_ms_p50,fct_ms_p99,retx_mean,active_flows,live_receivers,reaped$' || {
    echo "FAIL: windows.csv header is not halfback-weather-v1" >&2
    exit 1
}
rows=$(tail -n +2 "$dir/a/windows.csv" | wc -l)
if [ "$rows" != "10" ]; then
    echo "FAIL: expected 10 window rows for 10 minutes of 60s windows, got $rows" >&2
    exit 1
fi
bad=$(tail -n +2 "$dir/a/windows.csv" | grep -cv \
    '^[0-9]*,[0-9.]*,[0-9]*,[0-9]*,[0-9]*,[0-9.]*,[0-9.]*,[0-9.]*,[0-9.]*,[0-9]*,[0-9]*,[0-9]*$' || true)
if [ "$bad" != "0" ]; then
    echo "FAIL: $bad malformed windows.csv rows" >&2
    exit 1
fi

# A second parser beside netsim::json, which both writes and reads it.
python3 -m json.tool "$dir/a/weather.json" > /dev/null || {
    echo "FAIL: weather.json is not valid JSON" >&2
    exit 1
}
grep -q '"schema": "halfback-weather-v1"' "$dir/a/weather.json" || {
    echo "FAIL: weather.json missing schema tag" >&2
    exit 1
}
field() { grep "\"$2\":" "$1" | head -1 | tr -dc '0-9.'; }
fph=$(field "$dir/a/weather.json" flows_per_hour | cut -d. -f1)
if [ "$fph" -lt 1000000 ]; then
    echo "FAIL: sustained only $fph flows/simulated-hour (service target: 1M+)" >&2
    exit 1
fi
started=$(field "$dir/a/weather.json" flows_started)
completed=$(field "$dir/a/weather.json" flows_completed)
aborted=$(field "$dir/a/weather.json" flows_aborted)
censored=$(field "$dir/a/weather.json" flows_censored)
if [ "$started" != "$((completed + aborted + censored))" ]; then
    echo "FAIL: flow accounting broken: $started != $completed + $aborted + $censored" >&2
    exit 1
fi

# --- 2. Bounded memory ------------------------------------------------
peak_mb=$(field "$dir/a/weather.json" peak_rss_mb)
if [ -z "$peak_mb" ] || [ "$peak_mb" -eq 0 ]; then
    echo "FAIL: weather.json reports no peak RSS" >&2
    exit 1
fi
if [ "$peak_mb" -gt "$ceiling_mb" ]; then
    echo "FAIL: weather run peaked at ${peak_mb} MiB RSS (ceiling: ${ceiling_mb} MiB)" >&2
    exit 1
fi
ckpt_bytes=$(wc -c < "$dir/a/weather.ckpt")
if [ "$ckpt_bytes" -gt "$ckpt_ceiling" ]; then
    echo "FAIL: final weather.ckpt is ${ckpt_bytes} B (ceiling: ${ckpt_ceiling} B)" >&2
    exit 1
fi
reaped=$(field "$dir/a/weather.json" receivers_reaped)
if [ "$reaped" -le 0 ]; then
    echo "FAIL: no receivers reaped in 10 simulated minutes" >&2
    exit 1
fi

# --- 3. Kill at first checkpoint, resume, compare ---------------------
$run --out "$dir/b" --stop-after-checkpoints 1
cp -r "$dir/b" "$dir/c"
$run --out "$dir/b" --resume

if ! cmp -s "$dir/a/windows.csv" "$dir/b/windows.csv"; then
    echo "FAIL: windows.csv differs between uninterrupted and kill+resume runs" >&2
    diff "$dir/a/windows.csv" "$dir/b/windows.csv" >&2 || true
    exit 1
fi
grep -v '"machine"' "$dir/a/weather.json" > "$dir/a.json.det"
grep -v '"machine"' "$dir/b/weather.json" > "$dir/b.json.det"
if ! diff "$dir/a.json.det" "$dir/b.json.det"; then
    echo "FAIL: weather.json differs between uninterrupted and kill+resume runs" >&2
    exit 1
fi
if ! cmp -s "$dir/a/weather.ckpt" "$dir/b/weather.ckpt"; then
    echo "FAIL: final checkpoints differ between uninterrupted and kill+resume runs" >&2
    exit 1
fi

# --- 4. Flip one byte mid-file in the killed run's checkpoint ---------
mid=$(($(wc -c < "$dir/c/weather.ckpt") / 2))
byte=$(dd if="$dir/c/weather.ckpt" bs=1 skip="$mid" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 255)))" |
    dd of="$dir/c/weather.ckpt" bs=1 seek="$mid" conv=notrunc 2>/dev/null
if $run --out "$dir/c" --resume > "$dir/c.log" 2>&1; then
    echo "FAIL: --resume exited 0 on a damaged checkpoint" >&2
    exit 1
fi
if ! grep -q 'checksum' "$dir/c.log" || grep -qE 'panicked|memory allocation' "$dir/c.log"; then
    echo "FAIL: damaged checkpoint was not refused by the checksum:" >&2
    cat "$dir/c.log" >&2
    exit 1
fi

echo "OK: $started flows ($fph/simulated-hour, peak RSS ${peak_mb} MiB, checkpoint ${ckpt_bytes} B), kill+resume byte-identical, damaged checkpoint refused"
