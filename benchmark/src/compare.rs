//! `hbbench compare A.json B.json`: judge results B against results A with
//! the benchmark's own bounds. One row per (end-to-end metric, workload)
//! pairing; every exact per-layer metric and every digest must match.
//!
//! A pairing is **worse** when B's median is worse than A's by more than the
//! metric's bound, **unresolved** when it is not worse but the run-to-run
//! spread of either side (interquartile range over median, the driver's
//! definition) is wider than the bound — unless every run of B beats every
//! run of A — and **ok** otherwise.

use crate::error::{BenchError, Result};
use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::record::{median, SCHEMA};
use std::fmt::Write as _;
use std::path::Path;

/// Verdict on one pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// Not worse, but the runs scatter by more than the bound.
    Unresolved,
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 below two samples.
pub fn spread(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |(q1, q3)| (q3 - q1) / median(samples))
}

/// Judge samples `b` against `a` for metric `m`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (ma, mb) = (median(a), median(b));
    if sign * (mb - ma) / ma > m.bound {
        return Verdict::Worse;
    }
    let worst_b = b.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let best_a = a.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    if (spread(a) > m.bound || spread(b) > m.bound) && worst_b >= best_a {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn load(path: &Path) -> Result<Value> {
    let what = path.display().to_string();
    let text =
        std::fs::read_to_string(path).map_err(|e| BenchError::io(format!("read {what}"), e))?;
    let doc = Value::parse(&what, &text)?;
    if doc.need_str(&what, "schema")? != SCHEMA {
        return Err(BenchError::parse(what, format!("not a {SCHEMA} file")));
    }
    Ok(doc)
}

fn samples(what: &str, metric: &Value) -> Result<Vec<f64>> {
    let list: Option<Vec<f64>> = metric
        .need_arr(what, "samples")?
        .iter()
        .map(Value::as_f64)
        .collect();
    match list {
        Some(l) if !l.is_empty() => Ok(l),
        _ => Err(BenchError::parse(
            what,
            "\"samples\" is not a list of numbers",
        )),
    }
}

fn member<'a>(what: &str, doc: &'a Value, workload: &str, metric: &str) -> Result<&'a Value> {
    doc.get(metric)
        .ok_or_else(|| BenchError::parse(what, format!("{workload} lacks {metric}")))
}

/// The comparison table, and whether B passes: no pairing worse, no exact
/// metric or digest changed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(String, bool)> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let (wa, wb) = ("results A", "results B");
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread A", "spread B"
    );
    let mut paired = 0;
    for a in a_doc.need_arr(wa, "workloads")? {
        let name = a.need_str(wa, "name")?;
        let Some(b) = b_doc
            .need_arr(wb, "workloads")?
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        if let (Some(ea), Some(eb)) = (a.get("end_to_end"), b.get("end_to_end")) {
            for m in &END_TO_END {
                let (sa, sb) = (
                    samples(wa, member(wa, ea, name, m.name)?)?,
                    samples(wb, member(wb, eb, name, m.name)?)?,
                );
                let verdict = judge(m, &sa, &sb);
                pass &= verdict != Verdict::Worse;
                paired += 1;
                let _ = writeln!(
                    out,
                    "{:<18} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>8.1}% {:>8.1}%  {}",
                    name,
                    m.name,
                    median(&sa),
                    median(&sb),
                    (median(&sb) / median(&sa) - 1.0) * 100.0,
                    spread(&sa) * 100.0,
                    spread(&sb) * 100.0,
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Worse => "worse",
                        Verdict::Unresolved => "unresolved",
                    }
                );
            }
            let digest = |doc: &Value| doc.get("digest").and_then(Value::as_str).map(String::from);
            if digest(a) != digest(b) {
                pass = false;
                let _ = writeln!(
                    out,
                    "{name:<18} sim.digest   {:?} != {:?}  MISMATCH",
                    digest(a),
                    digest(b)
                );
            }
        }
        if let (Some(la), Some(lb)) = (
            a.get("per_layer").and_then(Value::as_obj),
            b.get("per_layer").and_then(Value::as_obj),
        ) {
            for (metric, va) in la {
                let exact = va.get("exact") == Some(&Value::Bool(true));
                let vb = lb.iter().find(|(k, _)| k == metric).map(|(_, v)| v);
                let (x, y) = (va.get("value"), vb.and_then(|v| v.get("value")));
                if exact && x != y {
                    pass = false;
                    let _ = writeln!(out, "{name:<18} {metric} {x:?} != {y:?}  MISMATCH");
                }
            }
        }
    }
    if paired == 0 {
        return Err(BenchError::parse(
            wb,
            "no workload with end-to-end metrics in common with results A",
        ));
    }
    let _ = writeln!(
        out,
        "{}",
        if pass {
            "PASS: no pairing worse than its bound; exact metrics and digests match"
        } else {
            "FAIL"
        }
    );
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PER_LAYER, WALL_S};
    use crate::record::{results_json, workload_json, EndToEndSamples};
    use crate::workloads::Workload;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let m = EndToEnd {
            bound: 0.10,
            ..WALL_S
        };
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&m, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&m, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&m, &slower, &steady), Verdict::Ok);
        let noisy = [0.8, 1.0, 1.25, 0.9, 1.1];
        assert_eq!(judge(&m, &steady, &noisy), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A: resolved.
        let faster: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(&m, &noisy, &faster), Verdict::Ok);
        // For a higher-is-better metric the same numbers read the other way.
        let up = EndToEnd {
            better: Better::Higher,
            ..m
        };
        assert_eq!(judge(&up, &steady, &slower), Verdict::Ok);
        assert_eq!(judge(&up, &slower, &steady), Verdict::Worse);
    }

    fn results(dir: &Path, file: &str, wall: f64, digest: u64, events: f64) -> std::path::PathBuf {
        let s = EndToEndSamples {
            wall_s: vec![wall, wall * 1.01, wall * 0.99],
            peak_rss_mb: vec![50.0; 3],
            cpu_s: vec![wall; 3],
            setup_s: vec![0.005; 3],
            digests: vec![digest; 3],
            attempted: 6,
            ..Default::default()
        };
        let mut layers = vec![1.0; PER_LAYER.len()];
        layers[0] = events;
        let doc = results_json(
            1,
            10,
            vec![workload_json(Workload::TinySims, Some(&s), Some(&layers))],
        );
        let path = dir.join(file);
        std::fs::write(&path, doc.render_pretty()).unwrap();
        path
    }

    #[test]
    fn files_compare_and_hostile_files_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("hbbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = results(&dir, "a.json", 1.0, 7, 100.0);

        let (table, pass) = compare(&a, &a).unwrap();
        assert!(
            pass && table.contains("tiny_sims") && table.contains("ok"),
            "{table}"
        );

        let slow = results(&dir, "slow.json", 1.4, 7, 100.0);
        let (table, pass) = compare(&a, &slow).unwrap();
        assert!(!pass && table.contains("worse"), "{table}");

        let moved = results(&dir, "moved.json", 1.0, 8, 100.0);
        let (table, pass) = compare(&a, &moved).unwrap();
        assert!(!pass && table.contains("sim.digest"), "{table}");

        let counted = results(&dir, "counted.json", 1.0, 7, 101.0);
        let (table, pass) = compare(&a, &counted).unwrap();
        assert!(!pass && table.contains("netsim.engine.events"), "{table}");

        let text = std::fs::read_to_string(&a).unwrap();
        let cut = dir.join("cut.json");
        std::fs::write(&cut, &text[..text.len() / 2]).unwrap();
        assert!(matches!(compare(&a, &cut), Err(BenchError::Parse { .. })));
        std::fs::write(&cut, "{\"schema\": \"something-else\"}").unwrap();
        assert!(matches!(compare(&cut, &a), Err(BenchError::Parse { .. })));
        assert!(matches!(
            compare(&a, &dir.join("absent.json")),
            Err(BenchError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
