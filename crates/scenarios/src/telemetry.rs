//! Shard runtime telemetry export: the `--telemetry <path>` JSONL file.
//!
//! One line per (window, partition) [`WindowTelemetry`] record, in
//! canonical order, preceded by a single header line — schema
//! `halfback-telemetry-v1`. Every top-level field is **virtual-time
//! deterministic**: a pure function of `(parts, seeds, horizon)`,
//! byte-identical across `--shards 1` and `--shards N` (pinned by
//! `telemetry_is_byte_identical_across_shard_counts_outside_wall` in
//! `tests/harness_determinism.rs`). The only nondeterministic measurements —
//! barrier wait and window wall time — are quarantined in a nested
//! `"wall":{...}` object so a checker can strip them with one regular
//! expression and golden the rest.

use netsim::shard::WindowTelemetry;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema tag stamped on the header line.
pub const TELEMETRY_SCHEMA: &str = "halfback-telemetry-v1";

/// Render the header line: run shape, no per-window data.
pub fn header_line(experiment: &str, parts: usize, windows: u64) -> String {
    format!(
        "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"kind\":\"run\",\"experiment\":\"{experiment}\",\
         \"parts\":{parts},\"windows\":{windows}}}"
    )
}

/// Render one record as a JSONL line. Deterministic fields first, wall
/// fields last under `"wall"` — strip with `s/,"wall":\{[^}]*\}//`.
pub fn record_line(t: &WindowTelemetry) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"kind\":\"window\",\"window\":{},\"part\":{},\"w_end_ns\":{},\
         \"events\":{},\"deposited\":{},\"injected\":{},\"mailbox_max\":{},\
         \"wheel_depth\":{},\"arena_live\":{},\"arena_hiwater\":{},\
         \"wall\":{{\"barrier_ns\":{},\"window_ns\":{}}}}}",
        t.window,
        t.part,
        t.w_end_ns,
        t.events,
        t.deposited,
        t.injected,
        t.mailbox_max,
        t.wheel_depth,
        t.arena_live,
        t.arena_hiwater,
        t.wall_barrier_ns,
        t.wall_window_ns,
    );
    line
}

/// Write the full JSONL file (header + one line per record) to `path`.
pub fn write_jsonl(
    path: &Path,
    experiment: &str,
    parts: usize,
    records: &[WindowTelemetry],
) -> io::Result<()> {
    let windows = records.iter().map(|r| r.window + 1).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&header_line(experiment, parts, windows));
    out.push('\n');
    for r in records {
        out.push_str(&record_line(r));
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(window: u64, part: usize) -> WindowTelemetry {
        WindowTelemetry {
            window,
            part,
            w_end_ns: 1_000 + window,
            events: 10,
            deposited: 1,
            injected: 2,
            mailbox_max: 2,
            wheel_depth: 3,
            arena_live: 4,
            arena_hiwater: 5,
            wall_barrier_ns: 12345,
            wall_window_ns: 67890,
        }
    }

    #[test]
    fn lines_quarantine_wall_fields() {
        let line = record_line(&record(7, 1));
        // Deterministic prefix, wall-only suffix: stripping the wall object
        // (everything from `,"wall"` to the closing brace) must leave no
        // wall data behind.
        let cut = line.find(",\"wall\"").unwrap();
        let stripped = format!("{}}}", &line[..cut]);
        assert!(stripped.contains("\"window\":7"));
        assert!(stripped.contains("\"part\":1"));
        assert!(!stripped.contains("12345"));
        assert!(!stripped.contains("barrier_ns"));
        assert!(line.ends_with("\"wall\":{\"barrier_ns\":12345,\"window_ns\":67890}}"));
    }

    #[test]
    fn header_counts_windows() {
        let recs = [record(0, 0), record(0, 1), record(3, 0)];
        let windows = recs.iter().map(|r| r.window + 1).max().unwrap();
        assert_eq!(windows, 4);
        let h = header_line("planetlab100k", 8, windows);
        assert!(h.contains("\"schema\":\"halfback-telemetry-v1\""));
        assert!(h.contains("\"parts\":8"));
        assert!(h.contains("\"windows\":4"));
    }
}
