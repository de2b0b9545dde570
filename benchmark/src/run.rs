//! The run protocol.
//!
//! **End to end** (tracing off): host time, closed batch. One child at a
//! time, each a fresh process, the parent blocked in `wait4`. First the
//! null-size runs that measure `setup_s` (they also fault the binary in, so
//! no separate warm-up run is needed), then rounds of one full-size run per
//! workload — round-robin, so that noise correlated in time spreads over the
//! workloads — until the time budget is used. Medians are reported, every
//! sample is recorded.
//!
//! **Traced**: a few end-to-end runs for the numbers only they can give
//! (digest, child CPU, parallel speed-up, checkpoint cost), then the
//! workload's probe rig in (plain, shimmed) pairs; each per-layer metric is
//! the median over the pairs.

use crate::args::ShardedArgs;
use crate::child::{self, Stdout};
use crate::error::{BenchError, Result};
use crate::json::obj;
use crate::layers::{self, EndToEndFacts};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::record::{self, median, EndToEndSamples};
use crate::rigs::{self, RigRun, Shim};
use crate::trace::TraceData;
use crate::workloads::{self, Env, Rep, Workload};
use scenarios::Protocol;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Null-size runs per workload; `setup_s` is their median.
const SETUP_RUNS: usize = 15;
/// Fewest full-size runs per workload, whatever the time budget.
const MIN_RUNS: usize = 3;
/// Fewest and most (plain, shimmed) rig pairs of a traced run.
const MIN_RIG_PAIRS: usize = 2;
const MAX_RIG_PAIRS: usize = 5;
/// (t1, t2) alternations behind `netsim.shard.parallel_speedup`.
const SPEEDUP_PAIRS: usize = 2;
/// The weather CLI run behind `scenarios.weather.checkpoint_ms`: 6 simulated
/// minutes in 10 s windows, so a checkpoint per window is 35 checkpoints.
const CHECKPOINT_MINUTES: &str = "6";
const CHECKPOINT_WINDOW_S: &str = "10";
const CHECKPOINTS: f64 = 35.0;
const CHECKPOINT_PAIRS: usize = 2;

fn note_failure(samples: &mut EndToEndSamples, w: Workload, e: BenchError) {
    eprintln!("hbbench: {}: {e}", w.name());
    samples.failed += 1;
    samples.errors.push(e.to_string());
}

/// Measure the end-to-end metrics of `ws` for `seconds` each. A failed run
/// is counted and reported, not fatal; the caller decides what a workload
/// without samples means.
pub fn end_to_end(ws: &[Workload], env: &Env, seed: u64, seconds: u32) -> Vec<EndToEndSamples> {
    let mut all: Vec<EndToEndSamples> = ws.iter().map(|_| EndToEndSamples::default()).collect();
    for _ in 0..SETUP_RUNS {
        for (w, s) in ws.iter().zip(&mut all) {
            s.attempted += 1;
            match workloads::run_null(*w, env) {
                Ok(setup_s) => s.setup_s.push(setup_s),
                Err(e) => note_failure(s, *w, e),
            }
        }
    }
    let budget = Duration::from_secs(seconds as u64 * ws.len() as u64);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_RUNS || started.elapsed() < budget {
        for (w, s) in ws.iter().zip(&mut all) {
            s.attempted += 1;
            match workloads::run_rep(*w, env, seed) {
                Ok(rep) => {
                    s.wall_s.push(rep.child.wall_s);
                    s.peak_rss_mb.push(rep.child.peak_rss_mb);
                    s.cpu_s.push(rep.child.cpu_s);
                    s.digests.push(rep.digest);
                }
                Err(e) => note_failure(s, *w, e),
            }
        }
        rounds += 1;
    }
    all
}

/// What a traced run of one workload produced.
#[derive(Debug, Clone)]
pub struct Traced {
    /// One value per [`PER_LAYER`] metric.
    pub values: Vec<f64>,
    /// Breakdown of the last shimmed rig run, `other` last.
    pub rows: Vec<layers::Row>,
    /// Thread time those rows sum to.
    pub thread_ns: u64,
    /// Spans of the last shimmed rig run.
    pub trace: TraceData,
    /// End-to-end runs plus rig pairs.
    pub attempted: u64,
    /// Rig pairs whose plain and shimmed runs simulated different things.
    pub failed: u64,
}

fn rig(w: Workload, seed: u64, shim: Shim) -> RigRun {
    match w {
        Workload::WeatherTcp => rigs::open_loop::run(Protocol::Tcp, seed, shim),
        Workload::WeatherHalfback => rigs::open_loop::run(Protocol::Halfback, seed, shim),
        Workload::ShardedDenseT1 | Workload::ShardedDenseT2 => crate::sharded::run(
            &ShardedArgs {
                hosts: workloads::SHARDED_HOSTS,
                threads: w.threads(),
                seed,
                build_only: false,
            },
            shim,
            true,
        ),
        Workload::DumbbellFigures => rigs::dumbbell::run(seed, shim),
        Workload::TinySims => rigs::tiny_path::run(seed, shim),
    }
}

/// Alternate `sharded_dense_t1` and `_t2`: their outputs must be identical,
/// and the ratio of their median walls is the speed-up of the second thread
/// (0 where the machine has no second thread to measure it on). Returns the
/// last run of `w` with it.
fn speedup_runs(w: Workload, env: &Env, seed: u64, attempted: &mut u64) -> Result<(Rep, f64)> {
    if record::available_parallelism() < 2 {
        *attempted += 1;
        return Ok((workloads::run_rep(w, env, seed)?, 0.0));
    }
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut own = None;
    for _ in 0..SPEEDUP_PAIRS {
        let a = workloads::run_rep(Workload::ShardedDenseT1, env, seed)?;
        let b = workloads::run_rep(Workload::ShardedDenseT2, env, seed)?;
        *attempted += 2;
        if a.digest != b.digest {
            return Err(BenchError::Check(format!(
                "sim.digest of sharded_dense_t2, {}, differs from sharded_dense_t1's, {}",
                record::digest_hex(b.digest),
                record::digest_hex(a.digest)
            )));
        }
        t1.push(a.child.wall_s);
        t2.push(b.child.wall_s);
        own = Some(if w == Workload::ShardedDenseT1 { a } else { b });
    }
    Ok((
        own.expect("at least one pair ran"),
        median(&t1) / median(&t2),
    ))
}

/// Cost of one weather checkpoint, as the CLI pays it: the same short run
/// with a checkpoint after every window and with none, best of a few.
fn checkpoint_cost(w: Workload, env: &Env, seed: u64, attempted: &mut u64) -> Result<(f64, u64)> {
    let scratch = env.fresh_scratch(w)?;
    let (program, mut args) = workloads::command(w, env, seed, workloads::Size::Full, &scratch);
    let minutes = args
        .iter()
        .position(|a| a == "--minutes")
        .expect("weather commands carry --minutes");
    args[minutes + 1] = CHECKPOINT_MINUTES.into();
    args.extend(["--window".into(), CHECKPOINT_WINDOW_S.into()]);
    args.extend(["--checkpoint-every".into(), String::new()]);
    let mut best = [f64::MAX; 2];
    let mut bytes = 0;
    for _ in 0..CHECKPOINT_PAIRS {
        for (slot, every) in ["1", "1000"].into_iter().enumerate() {
            *args.last_mut().expect("just pushed") = every.into();
            let run = child::run(&program, &args, Stdout::Discard, &[0])?;
            *attempted += 1;
            best[slot] = best[slot].min(run.wall_s);
            if every == "1" {
                let path = scratch.join("weather.ckpt");
                bytes = std::fs::metadata(&path)
                    .map_err(|e| BenchError::io(format!("stat {}", path.display()), e))?
                    .len();
            }
        }
    }
    Ok(((best[0] - best[1]) * 1e3 / CHECKPOINTS, bytes))
}

/// Run the traced set of one workload: the end-to-end runs it needs, then
/// rig pairs until `seconds` have passed since it started (at least two).
pub fn traced(w: Workload, env: &Env, seed: u64, seconds: u32) -> Result<Traced> {
    let budget = Duration::from_secs(seconds as u64);
    let started = Instant::now();
    let mut attempted = 0;
    let sharded = matches!(w, Workload::ShardedDenseT1 | Workload::ShardedDenseT2);
    let (rep, parallel_speedup) = if sharded {
        speedup_runs(w, env, seed, &mut attempted)?
    } else {
        attempted += 1;
        (workloads::run_rep(w, env, seed)?, 0.0)
    };
    let mut facts = EndToEndFacts {
        digest: rep.digest,
        events: rep.events,
        jobs: rep.jobs.unwrap_or(0),
        cpu_s: rep.child.cpu_s,
        cpu_utilization: rep.child.cpu_s / (w.threads() as f64 * rep.child.wall_s),
        parallel_speedup,
        ..EndToEndFacts::default()
    };
    if matches!(w, Workload::WeatherTcp | Workload::WeatherHalfback) {
        (facts.checkpoint_ms, facts.checkpoint_bytes) =
            checkpoint_cost(w, env, seed, &mut attempted)?;
    }

    let mut per_pair: Vec<Vec<f64>> = Vec::new();
    let mut failed = 0;
    let mut last = None;
    while per_pair.len() < MIN_RIG_PAIRS
        || (per_pair.len() < MAX_RIG_PAIRS && started.elapsed() < budget)
    {
        let plain = rig(w, seed, Shim(false));
        let shimmed = rig(w, seed, Shim(true));
        attempted += 1;
        if plain.simulated() != shimmed.simulated() {
            eprintln!(
                "hbbench: {}: the shims changed the simulation:\n  plain   {:?}\n  shimmed {:?}",
                w.name(),
                plain.simulated(),
                shimmed.simulated()
            );
            failed += 1;
        }
        per_pair.push(layers::per_layer(&plain, &shimmed, &facts));
        last = Some(shimmed);
    }
    let values = (0..PER_LAYER.len())
        .map(|i| median(&per_pair.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect();
    let last = last.expect("at least one rig pair ran");
    Ok(Traced {
        values,
        rows: layers::rows(&last),
        thread_ns: last.wall_ns * last.threads,
        trace: last.trace,
        attempted,
        failed,
    })
}

/// `spans.jsonl`: one line per coarse span, per (name, parent) total and per
/// breakdown row of a traced run.
pub fn spans_jsonl(w: Workload, t: &Traced) -> String {
    let mut out = String::new();
    for s in &t.trace.spans {
        let line = obj([
            ("kind", "span".into()),
            ("workload", w.name().into()),
            ("id", (s.id as u64).into()),
            (
                "parent",
                s.parent
                    .map_or(crate::json::Value::Null, |p| (p as u64).into()),
            ),
            ("name", s.span.name().into()),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
        ]);
        let _ = writeln!(out, "{}", line.render());
    }
    for a in &t.trace.agg {
        let line = obj([
            ("kind", "total".into()),
            ("workload", w.name().into()),
            ("name", a.span.name().into()),
            ("parent", a.parent.name().into()),
            ("calls", a.calls.into()),
            ("timed_calls", a.timed.into()),
            ("timed_ns", a.total_ns.into()),
            ("timed_child_ns", a.child_ns.into()),
            ("est_total_ns", a.est_total_ns().into()),
            ("est_self_ns", a.est_self_ns().into()),
        ]);
        let _ = writeln!(out, "{}", line.render());
    }
    for (layer, ns) in &t.rows {
        let line = obj([
            ("kind", "row".into()),
            ("workload", w.name().into()),
            ("layer", (*layer).into()),
            ("self_ns", (*ns as f64).into()),
            ("share", (*ns as f64 / t.thread_ns.max(1) as f64).into()),
        ]);
        let _ = writeln!(out, "{}", line.render());
    }
    out
}

/// Human-readable report of one workload's end-to-end metrics.
pub fn report_end_to_end(w: Workload, s: &EndToEndSamples) -> String {
    let mut out = String::new();
    for m in END_TO_END {
        let samples = s.of(m.name);
        let (lo, hi) = record::min_max(samples);
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>12.4} {:<4} (min {:.4}, max {:.4}, n {})",
            w.name(),
            m.name,
            median(samples),
            m.unit,
            lo,
            hi,
            samples.len()
        );
    }
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>12.4} share (failed {} of {} runs)",
        w.name(),
        "failed_share",
        s.failed_share(),
        s.failed,
        s.attempted
    );
    let digest = s
        .digests
        .first()
        .copied()
        .map_or("-".into(), record::digest_hex);
    let _ = writeln!(
        out,
        "{:<18} {:<12} {digest}{}",
        w.name(),
        "sim.digest",
        if s.digests_agree() {
            ""
        } else {
            "  DIFFERS BETWEEN RUNS"
        }
    );
    out
}

/// Human-readable report of one workload's traced run.
pub fn report_traced(w: Workload, t: &Traced) -> String {
    let mut out = String::new();
    for (m, v) in PER_LAYER.iter().zip(&t.values) {
        let _ = writeln!(
            out,
            "{:<18} {:<40} {:>16.4} {}",
            w.name(),
            m.name,
            v,
            m.unit
        );
    }
    for (layer, ns) in &t.rows {
        let _ = writeln!(
            out,
            "{:<18} row {:<36} {:>16.4} ms  {:>6.2} %",
            w.name(),
            layer,
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / t.thread_ns.max(1) as f64
        );
    }
    out
}
