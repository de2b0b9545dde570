//! `hbbench` — see `benchmark/README.md`.
//!
//! ```text
//! hbbench --workload W --seed S --seconds T --trace 0|1   one workload; last stdout line is the result JSON
//! hbbench [--seed S] [--seconds T] [--out FILE]           every workload, end to end then traced
//! hbbench compare A.json B.json                           judge results B against results A
//! ```

use hbbench::args::{self, Command, RunArgs};
use hbbench::error::{BenchError, Result};
use hbbench::json::{obj, Value};
use hbbench::metrics::{END_TO_END, PER_LAYER};
use hbbench::record::{self, median, EndToEndSamples};
use hbbench::run::{self, Traced};
use hbbench::workloads::{Env, Workload};
use std::path::Path;
use std::process::ExitCode;

fn write(path: &Path, text: &str) -> Result<()> {
    std::fs::write(path, text).map_err(|e| BenchError::io(format!("write {}", path.display()), e))
}

/// A workload none of whose runs succeeded has no metric to report.
fn reportable(w: Workload, s: &EndToEndSamples) -> Result<()> {
    if s.is_reportable() {
        return Ok(());
    }
    Err(BenchError::Check(format!(
        "{}: no successful run to report; first error: {}",
        w.name(),
        s.errors.first().map_or("none", String::as_str)
    )))
}

/// The driver's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", value.into()), ("unit", unit.into())])
}

fn write_traced(env: &Env, w: Workload, t: &Traced) -> Result<()> {
    let path = env.out.join(format!("spans.{}.jsonl", w.name()));
    write(&path, &run::spans_jsonl(w, t))
}

/// One workload, as the driver runs it. Once a result line is printed the
/// exit code is 0: a failed check is the line's `"correct": false`.
fn run_one(env: &Env, w: Workload, a: &RunArgs) -> Result<()> {
    let record_path = env.out.join(format!(
        "run.{}.trace{}.seed{}.json",
        w.name(),
        a.trace as u8,
        a.seed
    ));
    if a.trace {
        let t = run::traced(w, env, a.seed, a.seconds)?;
        print!("{}", run::report_traced(w, &t));
        write_traced(env, w, &t)?;
        let doc = record::results_json(
            a.seed,
            a.seconds,
            vec![record::workload_json(w, None, Some(&t.values))],
        );
        write(&record_path, &doc.render_pretty())?;
        let metrics = PER_LAYER
            .iter()
            .zip(&t.values)
            .map(|(m, &v)| (m.name.to_string(), metric(v, m.unit)))
            .collect();
        println!(
            "{}",
            result_line(t.failed == 0, t.attempted, t.failed, metrics)
        );
        return Ok(());
    }
    let s = run::end_to_end(&[w], env, a.seed, a.seconds).remove(0);
    reportable(w, &s)?;
    print!("{}", run::report_end_to_end(w, &s));
    let doc = record::results_json(
        a.seed,
        a.seconds,
        vec![record::workload_json(w, Some(&s), None)],
    );
    write(&record_path, &doc.render_pretty())?;
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), metric(median(s.of(m.name)), m.unit)))
        .collect();
    let correct = s.failed == 0 && s.digests_agree();
    println!("{}", result_line(correct, s.attempted, s.failed, metrics));
    Ok(())
}

/// Every workload: end-to-end runs interleaved round-robin, then the traced
/// runs, one results file for the lot.
fn run_set(env: &Env, a: &RunArgs) -> Result<bool> {
    let all = Workload::ALL;
    let samples = run::end_to_end(&all, env, a.seed, a.seconds);
    let mut correct = true;
    let mut records = Vec::new();
    for (w, s) in all.into_iter().zip(&samples) {
        reportable(w, s)?;
        print!("{}", run::report_end_to_end(w, s));
        correct &= s.failed == 0 && s.digests_agree();
    }
    let digest =
        |w: Workload| samples[all.iter().position(|x| *x == w).expect("listed")].digests[0];
    if digest(Workload::ShardedDenseT1) != digest(Workload::ShardedDenseT2) {
        eprintln!("hbbench: sharded_dense_t1 and _t2 report different sim.digest");
        correct = false;
    }
    for (w, s) in all.into_iter().zip(&samples) {
        let t = run::traced(w, env, a.seed, a.seconds)?;
        print!("{}", run::report_traced(w, &t));
        write_traced(env, w, &t)?;
        correct &= t.failed == 0;
        records.push(record::workload_json(w, Some(s), Some(&t.values)));
    }
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| env.out.join(format!("results.seed{}.json", a.seed)));
    write(
        &path,
        &record::results_json(a.seed, a.seconds, records).render_pretty(),
    )?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        if correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(correct)
}

fn dispatch(argv: &[String]) -> Result<bool> {
    match args::parse(argv)? {
        Command::ShardedChild(cfg) => {
            hbbench::sharded::child_main(&cfg);
            Ok(true)
        }
        Command::Compare(a, b) => {
            let (table, pass) = hbbench::compare::compare(&a, &b)?;
            print!("{table}");
            Ok(pass)
        }
        Command::Run(a) => {
            let env = Env::locate()?;
            match a.workload {
                Some(w) => run_one(&env, w, &a).map(|()| true),
                None => run_set(&env, &a),
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hbbench: {e}");
            ExitCode::from(2)
        }
    }
}
