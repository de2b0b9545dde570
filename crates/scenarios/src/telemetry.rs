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

use netsim::json::Writer;
use netsim::shard::WindowTelemetry;
use std::io;
use std::path::Path;

/// Schema tag stamped on the header line.
pub const TELEMETRY_SCHEMA: &str = "halfback-telemetry-v1";

/// Render the header line, newline included: run shape, no per-window data.
pub fn header_line(experiment: &str, parts: usize, windows: u64) -> String {
    let mut w = Writer::new();
    w.obj_line(|w| {
        w.key("schema").str(TELEMETRY_SCHEMA);
        w.key("kind").str("run");
        w.key("experiment").str(experiment);
        w.key("parts").u64(parts as u64);
        w.key("windows").u64(windows);
    });
    w.finish()
}

/// Render one record as a JSONL line, newline included. Deterministic
/// fields first, wall fields last under `"wall"` — strip with
/// `s/,"wall":\{[^}]*\}//`.
pub fn record_line(t: &WindowTelemetry) -> String {
    let mut w = Writer::new();
    w.obj_line(|w| {
        w.key("kind").str("window");
        w.key("window").u64(t.window);
        w.key("part").u64(t.part as u64);
        w.key("w_end_ns").u64(t.w_end_ns);
        w.key("events").u64(t.events);
        w.key("deposited").u64(t.deposited);
        w.key("injected").u64(t.injected);
        w.key("mailbox_max").u64(t.mailbox_max);
        w.key("wheel_depth").u64(t.wheel_depth);
        w.key("arena_live").u64(t.arena_live);
        w.key("arena_hiwater").u64(t.arena_hiwater);
        w.key("wall").obj_line(|w| {
            w.key("barrier_ns").u64(t.wall_barrier_ns);
            w.key("window_ns").u64(t.wall_window_ns);
        });
    });
    w.finish()
}

/// Write the full JSONL file (header + one line per record) to `path`.
pub fn write_jsonl(
    path: &Path,
    experiment: &str,
    parts: usize,
    records: &[WindowTelemetry],
) -> io::Result<()> {
    let windows = records.iter().map(|r| r.window + 1).max().unwrap_or(0);
    let mut out = header_line(experiment, parts, windows);
    for r in records {
        out.push_str(&record_line(r));
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
        assert!(line.ends_with("\"wall\":{\"barrier_ns\":12345,\"window_ns\":67890}}\n"));
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
