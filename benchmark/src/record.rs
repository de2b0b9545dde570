//! The results record: everything needed to cite a run and to recompute the
//! bounds — where it ran, at which sizes, and every raw sample, not only the
//! medians.

use crate::json::{obj, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// Schema tag of a results file.
pub const SCHEMA: &str = "hbbench-results-v1";

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice: callers only summarise metrics they measured.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The end-to-end samples of one workload.
#[derive(Debug, Clone, Default)]
pub struct EndToEndSamples {
    /// One per measured run: host seconds, spawn to exit.
    pub wall_s: Vec<f64>,
    /// One per measured run: the child's peak resident set.
    pub peak_rss_mb: Vec<f64>,
    /// One per measured run: the child's CPU seconds.
    pub cpu_s: Vec<f64>,
    /// One per null-size run.
    pub setup_s: Vec<f64>,
    /// Digest of each measured run's outputs.
    pub digests: Vec<u64>,
    /// Runs started, measured and null-size together.
    pub attempted: u64,
    /// Runs that exited non-zero, timed out or failed a check.
    pub failed: u64,
    /// What went wrong, one line per failed run.
    pub errors: Vec<String>,
}

impl EndToEndSamples {
    /// The samples of end-to-end metric `name`.
    pub fn of(&self, name: &str) -> &[f64] {
        match name {
            "wall_s" => &self.wall_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "setup_s" => &self.setup_s,
            other => panic!("no end-to-end metric named {other}"),
        }
    }

    /// True when every measured run produced the same outputs.
    pub fn digests_agree(&self) -> bool {
        self.digests.windows(2).all(|d| d[0] == d[1])
    }

    /// Failed runs ÷ runs attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every metric has at least one sample to report.
    pub fn is_reportable(&self) -> bool {
        END_TO_END.iter().all(|m| !self.of(m.name).is_empty())
    }
}

/// Smallest and largest of `samples`.
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)))
}

fn samples_json(samples: &[f64], unit: &str) -> Value {
    let (min, max) = min_max(samples);
    obj([
        ("median", median(samples).into()),
        ("min", min.into()),
        ("max", max.into()),
        ("n", (samples.len() as u64).into()),
        ("unit", unit.into()),
        (
            "samples",
            Value::Arr(samples.iter().map(|&s| s.into()).collect()),
        ),
    ])
}

/// Render a digest the way records and reports show it.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The record of one workload: its knobs, plus whichever of the end-to-end
/// samples and per-layer values this invocation measured.
pub fn workload_json(w: Workload, e2e: Option<&EndToEndSamples>, layers: Option<&[f64]>) -> Value {
    let mut members = vec![
        ("name".to_string(), w.name().into()),
        ("knobs".to_string(), w.knobs()),
    ];
    if let Some(s) = e2e {
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), samples_json(s.of(m.name), m.unit)))
            .collect();
        members.extend([
            ("attempted".to_string(), s.attempted.into()),
            ("failed".to_string(), s.failed.into()),
            ("failed_share".to_string(), s.failed_share().into()),
            (
                "errors".to_string(),
                Value::Arr(s.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            (
                "digest".to_string(),
                s.digests
                    .first()
                    .map_or(Value::Null, |&d| digest_hex(d).into()),
            ),
            ("digests_agree".to_string(), s.digests_agree().into()),
            ("cpu_s".to_string(), samples_json(&s.cpu_s, "s")),
            ("end_to_end".to_string(), Value::Obj(metrics)),
        ]);
    }
    if let Some(values) = layers {
        let metrics = PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, &v)| {
                let entry = obj([
                    ("value", v.into()),
                    ("unit", m.unit.into()),
                    ("exact", m.exact.into()),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        members.push(("per_layer".to_string(), Value::Obj(metrics)));
    }
    Value::Obj(members)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Hardware threads the process may use.
pub fn available_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// A complete results file.
pub fn results_json(seed: u64, seconds: u32, workloads: Vec<Value>) -> Value {
    let unknown = || "unknown".to_string();
    obj([
        ("schema", SCHEMA.into()),
        (
            // A driver's checkout is not a git repository.
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("profile", "release".into()),
        ("available_parallelism", available_parallelism().into()),
        ("cpu_model", cpu_model().unwrap_or_else(unknown).into()),
        ("seed", seed.into()),
        ("seconds", (seconds as u64).into()),
        ("workloads", Value::Arr(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn record_keeps_raw_samples_and_says_where_it_ran() {
        let s = EndToEndSamples {
            wall_s: vec![1.5, 1.25, 1.75],
            peak_rss_mb: vec![60.0; 3],
            cpu_s: vec![1.4; 3],
            setup_s: vec![0.005, 0.006],
            digests: vec![7, 7, 7],
            attempted: 5,
            failed: 0,
            errors: vec![],
        };
        assert!(s.digests_agree() && s.is_reportable());
        let layers: Vec<f64> = (0..PER_LAYER.len()).map(|i| i as f64).collect();
        let doc = results_json(
            4801,
            10,
            vec![workload_json(Workload::WeatherTcp, Some(&s), Some(&layers))],
        );
        let back = Value::parse("results", &doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
        for key in ["git_commit", "rustc", "profile", "cpu_model"] {
            assert!(back.need_str("results", key).is_ok(), "{key}");
        }
        assert!(back.need_u64("results", "available_parallelism").unwrap() >= 1);
        let w = &back.need_arr("results", "workloads").unwrap()[0];
        assert_eq!(
            w.get("knobs").unwrap().need_u64("k", "minutes").unwrap(),
            15
        );
        let wall = w.get("end_to_end").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.need_f64("w", "median").unwrap(), 1.5);
        assert_eq!(wall.need_arr("w", "samples").unwrap().len(), 3);
        let events = w.get("per_layer").unwrap().get("netsim.engine.events");
        assert_eq!(events.unwrap().get("exact"), Some(&Value::Bool(true)));
    }

    #[test]
    fn disagreeing_digests_and_missing_metrics_are_noticed() {
        let mut s = EndToEndSamples {
            digests: vec![1, 1, 2],
            ..Default::default()
        };
        assert!(!s.digests_agree());
        assert!(!s.is_reportable());
        s.attempted = 4;
        s.failed = 1;
        assert_eq!(s.failed_share(), 0.25);
    }
}
