//! The per-run `manifest.json`: a machine-readable record of what a
//! `repro` invocation ran and what it cost, written next to the figures
//! when `--out` is given — schema `halfback-manifest-v1`.
//!
//! The manifest is the diffable perf trajectory: seeds and scheme set pin
//! *what* was simulated, per-experiment event totals and virtual time pin
//! *how much*, and wall time + machine shape record *how fast*. Fields
//! fall into two classes:
//!
//! * **Deterministic** — everything except the exceptions below: a pure
//!   function of `(experiments, scale)`, byte-identical run-to-run and
//!   across `--jobs`/`--shards`. Safe to diff or golden.
//! * **Machine-varying** — wall-clock seconds (keys prefixed `wall_`) and
//!   the single `"machine"` line (jobs/shards settings, RSS). Checkers
//!   strip these with `grep -vE '"wall_|"machine"'` — each such field is
//!   emitted on its own line, nothing deterministic shares a line with
//!   one (`hbbench` digests the manifest stripped this way).
//!
//! The `"machine"` line's `peak_rss_mb` is the `VmHWM` of the whole
//! process, the worker pool included, so it moves with which jobs happen
//! to run side by side: the same build has read 17 and 20 MiB on
//! `repro all --quick --jobs 2`. It is not a figure for comparing builds;
//! `hbbench`'s per-workload `peak_rss_mb`, over alternated pairs, is.

use netsim::json::Writer;

/// Schema tag stamped into the manifest.
pub const MANIFEST_SCHEMA: &str = "halfback-manifest-v1";

/// Per-experiment entry.
#[derive(Debug, Clone)]
pub struct ExperimentEntry {
    /// Experiment id (`fig6`, `planetlab100k`, ...).
    pub id: String,
    /// Figure ids the experiment produced.
    pub figures: Vec<String>,
    /// Harness jobs the experiment fanned out.
    pub jobs_run: usize,
    /// Total discrete events processed.
    pub events: u64,
    /// Total simulated virtual time, nanoseconds.
    pub virtual_ns: u64,
    /// Sketch memory high-water mark (bytes; 0 when the experiment does
    /// not aggregate through sketches). Deterministic.
    pub sketch_mem_bytes: u64,
    /// Wall-clock seconds (machine-varying).
    pub wall_s: f64,
}

/// The whole manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `full` or `quick`.
    pub scale: String,
    /// Scheme registry active for this build, in registry order.
    pub schemes: Vec<String>,
    /// One entry per experiment run, in invocation order.
    pub experiments: Vec<ExperimentEntry>,
    /// `--jobs` effective value (machine-varying).
    pub jobs: usize,
    /// `--shards` effective value (machine-varying).
    pub shards: usize,
    /// Peak resident set size of the process so far, the worker pool
    /// included, MiB (machine-varying; 0 if unavailable).
    pub peak_rss_mb: u64,
}

impl Manifest {
    /// Render as pretty-printed JSON with the machine-varying fields each
    /// on their own, syntactically strippable line.
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        w.obj(|w| {
            w.key("schema").str(MANIFEST_SCHEMA);
            w.key("scale").str(&self.scale);
            w.key("schemes").arr_line(|w| strings(w, &self.schemes));
            w.key("experiments").arr(|w| {
                for e in &self.experiments {
                    w.elem().obj(|w| {
                        w.key("id").str(&e.id);
                        w.key("figures").arr_line(|w| strings(w, &e.figures));
                        w.key("jobs_run").u64(e.jobs_run as u64);
                        w.key("events").u64(e.events);
                        w.key("virtual_ns").u64(e.virtual_ns);
                        w.key("sketch_mem_bytes").u64(e.sketch_mem_bytes);
                        w.key("wall_s").fixed(e.wall_s, 3);
                    });
                }
            });
            w.key("machine").obj_line(|w| {
                w.key("jobs").u64(self.jobs as u64);
                w.key("shards").u64(self.shards as u64);
                w.key("peak_rss_mb").u64(self.peak_rss_mb);
            });
        });
        w.finish()
    }
}

fn strings(w: &mut Writer, items: &[String]) {
    for s in items {
        w.elem().str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            scale: "quick".into(),
            schemes: vec!["Halfback".into(), "TcpReno".into()],
            experiments: vec![
                ExperimentEntry {
                    id: "fig6".into(),
                    figures: vec!["fig6".into()],
                    jobs_run: 8,
                    events: 123_456,
                    virtual_ns: 9_000_000_000,
                    sketch_mem_bytes: 0,
                    wall_s: 1.25,
                },
                ExperimentEntry {
                    id: "planetlab100k".into(),
                    figures: vec!["planetlab100k".into()],
                    jobs_run: 1,
                    events: 777,
                    virtual_ns: 180_000_000_000,
                    sketch_mem_bytes: 14_000,
                    wall_s: 300.0,
                },
            ],
            jobs: 4,
            shards: 4,
            peak_rss_mb: 29,
        }
    }

    #[test]
    fn machine_varying_fields_are_line_strippable() {
        let json = sample().render_json();
        let deterministic: Vec<&str> = json
            .lines()
            .filter(|l| !l.contains("\"wall_") && !l.contains("\"machine\""))
            .collect();
        let det = deterministic.join("\n");
        // Nothing machine-varying survives the strip...
        assert!(!det.contains("wall_s"));
        assert!(!det.contains("rss_mb"));
        assert!(!det.contains("\"jobs\":"));
        // ...and everything deterministic does.
        assert!(det.contains("\"schema\": \"halfback-manifest-v1\""));
        assert!(det.contains("\"events\": 123456"));
        assert!(det.contains("\"sketch_mem_bytes\": 14000"));
        assert!(det.contains("\"schemes\": [\"Halfback\",\"TcpReno\"]"));
    }

    #[test]
    fn render_is_deterministic_given_fields() {
        assert_eq!(sample().render_json(), sample().render_json());
    }
}
