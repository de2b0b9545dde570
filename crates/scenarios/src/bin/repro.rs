//! `repro` — regenerate any table or figure of the Halfback paper.
//!
//! ```text
//! repro <experiment>... [--quick | --scale quick|full] [--jobs N] [--shards N]
//!                       [--telemetry FILE] [--out DIR]
//! repro all [--quick] [--out DIR]
//! repro trace [--figure F] [--protocol P] [--seed S] [--flow N] [--bytes B] [--out DIR]
//! repro simcheck [--seed S] [--cases N] [--jobs N] [--out DIR]
//! repro simcheck --case ID [--seed S] [--keep-flows L] [--keep-faults L] [--keep-hops K]
//! repro weather [--scheme P] [--utilization F] [--hours H | --minutes M] [--window S]
//!               [--warmup S] [--checkpoint-every N] [--amplitude F] [--period-hours H]
//!               [--pairs N] [--seed S] [--out DIR] [--resume] [--stop-after-checkpoints K]
//! repro list
//! ```
//!
//! `weather` is the open-loop "internet weather" service mode: a streaming
//! Poisson(+diurnal) arrival driver injects short flows forever, reports
//! steady-state per-window stats to `out/windows.csv`, and checkpoints the
//! complete engine/host/arrival state to `out/weather.ckpt` so a killed run
//! resumes byte-identically (`--resume`). `--stop-after-checkpoints K`
//! exits right after the Kth checkpoint — the deterministic kill the CI
//! restore battery uses.
//!
//! Experiments: fig1 fig2 fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 table1. `--quick` runs the reduced-scale
//! version (the same code paths the test suite and benches exercise);
//! without it the paper-scale parameters run (use `--release`!).
//!
//! `--jobs N` sets the simulation worker-pool size (default: all cores).
//! Results are byte-identical for every N: jobs carry stable keys and are
//! collected in submission order, so `out/*.csv` never depends on thread
//! interleaving.
//!
//! `--shards N` sets the worker-thread count for sharded scenarios
//! (`planetlab100k`), which parallelize *inside* one simulation. The
//! partition count is fixed by the scenario, so output is byte-identical
//! for every N here too.
//!
//! `--telemetry FILE` makes sharded scenarios emit per-window runtime
//! stats as JSONL (schema `halfback-telemetry-v1`). Virtual-time fields
//! are byte-identical across `--shards N`; wall-clock fields live in a
//! nested `"wall"` object that checkers strip.
//!
//! With `--out DIR`, a machine-readable `manifest.json` (schema
//! `halfback-manifest-v1`) is written next to the figures: scale, scheme
//! set, per-experiment event totals, virtual time, sketch memory, and
//! wall time. Machine-varying fields sit on their own lines so
//! `grep -vE '"wall_|"machine"'` leaves a deterministic document.

#![forbid(unsafe_code)]

use netsim::SimDuration;
use scenarios::figures::{distinct_experiment_ids, experiment};
use scenarios::harness::{JobMetrics, RunCtx};
use scenarios::manifest::{ExperimentEntry, Manifest};
use scenarios::simcheck;
use scenarios::trace::{path_for, run_trace, TraceSpec};
use scenarios::weather::{self, WeatherConfig, WeatherRunOptions};
use scenarios::{Protocol, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::MAX_OVERLOAD_UTILIZATION;

/// Per-experiment job accounting, printed to stderr only so the files in
/// `--out` stay byte-identical across `--jobs` settings. The caller drains
/// the run context's tally once and shares its metrics with the manifest.
fn report_jobs(id: &str, wall_s: f64, workers: usize, metrics: &[JobMetrics]) {
    if metrics.is_empty() {
        return;
    }
    let virt_s: f64 = metrics.iter().map(|m| m.virtual_ns as f64 / 1e9).sum();
    let events: u64 = metrics.iter().map(|m| m.events).sum();
    let busy_s: f64 = metrics.iter().map(|m| m.wall.as_secs_f64()).sum();
    let panicked = metrics.iter().filter(|m| !m.ok).count();
    eprintln!(
        ">> {id}: {} jobs on {} workers: wall {wall_s:.1}s, cpu {busy_s:.1}s, \
         virtual {virt_s:.0}s, {events} events{}",
        metrics.len(),
        workers,
        if panicked > 0 {
            format!(", {panicked} PANICKED")
        } else {
            String::new()
        }
    );
}

/// Refuse a command line: say why and exit 2, before any banner or output
/// directory. (Exit 1 is a run that started and failed: simcheck
/// violations, I/O, run errors.)
fn refuse(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("{why}");
    ExitCode::from(2)
}

/// A path operand, unless the word is itself a flag (`--out --resume` lost
/// its directory; it does not name one called `--resume`).
fn path_operand(word: Option<String>) -> Option<PathBuf> {
    word.filter(|w| !w.starts_with("--")).map(PathBuf::from)
}

/// `secs` seconds, if the simulated clock can hold it: finite, positive
/// (or zero, where `zero_ok`) and below `u64::MAX` nanoseconds.
fn sim_duration(secs: f64, zero_ok: bool) -> Option<SimDuration> {
    let ns = (secs * 1e9).round();
    (ns < u64::MAX as f64 && (ns >= 1.0 || zero_ok && ns == 0.0))
        .then(|| SimDuration::from_nanos(ns as u64))
}

/// `repro trace`: replay one (figure, protocol, seed, flow) with the
/// flight recorder on and write `trace.jsonl` + `trace_timeseq.csv` under
/// `--out` (default `out/`).
fn trace_main(args: Vec<String>) -> ExitCode {
    let mut spec = TraceSpec::default();
    let mut out_dir = PathBuf::from("out");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--figure" | "-f" => match it.next().filter(|f| path_for(f).is_ok()) {
                Some(f) => spec.figure = f,
                None => return refuse("--figure needs a name (fig5..fig8 or chaos)"),
            },
            "--protocol" | "-p" => match it.next().as_deref().and_then(Protocol::parse) {
                Some(p) => spec.protocol = p,
                None => {
                    return refuse("--protocol needs a scheme name (e.g. Halfback, TCP, JumpStart)")
                }
            },
            "--seed" | "-s" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) => spec.seed = s,
                None => return refuse("--seed needs an integer"),
            },
            "--flow" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(f) if f >= 1 => spec.flow = f,
                _ => return refuse("--flow needs a positive integer"),
            },
            "--bytes" | "-b" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(b) if b >= 1 => spec.bytes = b,
                _ => return refuse("--bytes needs a positive integer"),
            },
            "--out" | "-o" => match path_operand(it.next()) {
                Some(dir) => out_dir = dir,
                None => return refuse("--out needs a directory"),
            },
            other => return refuse(format!("unknown trace flag '{other}'")),
        }
    }

    eprintln!(
        ">> tracing {} on {} (seed {}, flow {}, {} bytes)...",
        spec.protocol.name(),
        spec.figure,
        spec.seed,
        spec.flow,
        spec.bytes
    );
    let out = match run_trace(&spec) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("trace failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let jsonl_path = out_dir.join("trace.jsonl");
    let csv_path = out_dir.join("trace_timeseq.csv");
    if let Err(e) = std::fs::write(&jsonl_path, &out.jsonl) {
        eprintln!("failed to write {}: {e}", jsonl_path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&csv_path, &out.timeseq_csv) {
        eprintln!("failed to write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "trace: {} events -> {} and {}",
        out.events,
        jsonl_path.display(),
        csv_path.display()
    );
    match out.meet {
        Some(m) => println!(
            "meet point: cursor {} met cum_ack {} of {} paced segments (fraction {:.3}; paper: ~0.5 on a clean path)",
            m.cursor, m.cum_ack, m.batch_segs, m.fraction
        ),
        None => println!("meet point: none (non-Halfback scheme, or ROPR ended by RTO)"),
    }
    ExitCode::SUCCESS
}

/// Parse a `--keep-*` index list: comma-separated indices, or `none` for
/// the empty selection.
fn parse_keep_list(s: &str) -> Option<Vec<usize>> {
    if s == "none" {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|p| p.trim().parse::<usize>().ok())
        .collect()
}

/// `repro simcheck`: run the invariant-fuzzer battery (default), or replay
/// one case — possibly restricted by the `--keep-*` flags an emitted repro
/// command carries. Battery summaries go to stdout and are byte-identical
/// across `--jobs N`; failing-case traces are written under `--out`.
fn simcheck_main(args: Vec<String>) -> ExitCode {
    let mut seed = 42u64;
    let mut cases = simcheck::DEFAULT_CASES;
    let mut single: Option<u64> = None;
    let mut keep_flows: Option<Vec<usize>> = None;
    let mut keep_faults: Option<Vec<usize>> = None;
    let mut keep_hops: Option<usize> = None;
    // Simcheck cases fix their own sizes: the scale is never read.
    let mut ctx = RunCtx::new(Scale::Quick);
    let mut out_dir = PathBuf::from("out");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "-s" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => return refuse("--seed needs an integer"),
            },
            "--cases" | "-n" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cases = n,
                _ => return refuse("--cases needs a positive integer"),
            },
            "--case" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(id) => single = Some(id),
                None => return refuse("--case needs a case id"),
            },
            "--keep-flows" => match it.next().as_deref().and_then(parse_keep_list) {
                Some(l) => keep_flows = Some(l),
                None => return refuse("--keep-flows needs comma-separated indices or 'none'"),
            },
            "--keep-faults" => match it.next().as_deref().and_then(parse_keep_list) {
                Some(l) => keep_faults = Some(l),
                None => return refuse("--keep-faults needs comma-separated indices or 'none'"),
            },
            "--keep-hops" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(k) if k >= 1 => keep_hops = Some(k),
                _ => return refuse("--keep-hops needs a positive hop count"),
            },
            "--jobs" | "-j" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => ctx.jobs = n,
                _ => return refuse("--jobs needs a positive integer"),
            },
            "--out" | "-o" => match path_operand(it.next()) {
                Some(dir) => out_dir = dir,
                None => return refuse("--out needs a directory"),
            },
            other => return refuse(format!("unknown simcheck flag '{other}'")),
        }
    }

    if let Some(id) = single {
        let spec = simcheck::generate_case(seed, id);
        let mut sel = simcheck::Selection::full(&spec);
        if let Some(l) = keep_flows {
            sel.flows = l.into_iter().filter(|&i| i < spec.flows.len()).collect();
        }
        if let Some(l) = keep_faults {
            sel.faults = l.into_iter().filter(|&i| i < spec.faults.len()).collect();
        }
        if let Some(k) = keep_hops {
            sel.hops = k.clamp(1, spec.topology.hop_count());
        }
        let out = simcheck::run_single(&spec, &sel);
        println!("{}", out.line());
        if !out.ok() {
            let path = out_dir.join(format!("simcheck_case{id}.trace.jsonl"));
            let trace = out.trace.unwrap_or_default();
            match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, trace)) {
                Ok(()) => eprintln!(">> trace written to {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    eprintln!(
        ">> simcheck: seed {seed}, {cases} cases on {} workers...",
        ctx.jobs
    );
    let started = std::time::Instant::now();
    let battery = simcheck::run_battery(&ctx, seed, cases);
    print!("{}", battery.render_text());
    // Failing cases get their shrunk trace exported; files only, so stdout
    // stays byte-identical across worker counts.
    for c in battery.cases.iter().filter(|c| !c.ok()) {
        if let Some(trace) = &c.trace {
            let path = out_dir.join(format!("simcheck_case{}.trace.jsonl", c.id));
            match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, trace)) {
                Ok(()) => eprintln!(">> case {}: trace written to {}", c.id, path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
    report_jobs(
        "simcheck",
        started.elapsed().as_secs_f64(),
        ctx.jobs,
        &ctx.take_tally().jobs,
    );
    if battery.failures() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro weather`: run (or resume) the open-loop service mode. Output
/// files (`windows.csv`, `weather.json`) are byte-identical across
/// kill/resume; progress and machine-varying stats go to stderr.
fn weather_main(args: Vec<String>) -> ExitCode {
    let mut cfg = WeatherConfig::default();
    let mut opts = WeatherRunOptions::default();
    let mut out_dir = PathBuf::from("out/weather");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" | "-p" => match it.next().as_deref().and_then(Protocol::parse) {
                Some(p) => cfg.protocol = p,
                None => {
                    return refuse("--scheme needs a scheme name (e.g. Halfback, TCP, JumpStart)")
                }
            },
            "--utilization" | "-u" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(u) if u > 0.0 && u <= MAX_OVERLOAD_UTILIZATION => cfg.utilization = u,
                _ => {
                    return refuse(format!(
                        "--utilization needs a fraction in (0, {MAX_OVERLOAD_UTILIZATION}] \
                         (0.4 = 40 % of the bottleneck; above 1 is deliberate overload)"
                    ))
                }
            },
            "--hours" => match it
                .next()
                .and_then(|n| n.parse::<f64>().ok())
                .and_then(|h| sim_duration(h * 3600.0, false))
            {
                Some(d) => cfg.duration = d,
                None => return refuse("--hours needs a positive number"),
            },
            "--minutes" => match it
                .next()
                .and_then(|n| n.parse::<f64>().ok())
                .and_then(|m| sim_duration(m * 60.0, false))
            {
                Some(d) => cfg.duration = d,
                None => return refuse("--minutes needs a positive number"),
            },
            "--window" => match it
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .and_then(|s| sim_duration(s as f64, false))
            {
                Some(d) => cfg.window = d,
                None => return refuse("--window needs a positive number of seconds"),
            },
            "--warmup" => match it
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .and_then(|s| sim_duration(s as f64, true))
            {
                Some(d) => cfg.warmup = d,
                None => return refuse("--warmup needs a number of seconds"),
            },
            "--checkpoint-every" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.checkpoint_every = n,
                _ => return refuse("--checkpoint-every needs a positive window count"),
            },
            "--amplitude" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(a) if (0.0..1.0).contains(&a) => cfg.amplitude = a,
                _ => return refuse("--amplitude needs a fraction in [0, 1)"),
            },
            "--period-hours" => match it
                .next()
                .and_then(|n| n.parse::<f64>().ok())
                .and_then(|h| sim_duration(h * 3600.0, false))
            {
                Some(d) => cfg.period = d,
                None => return refuse("--period-hours needs a positive number"),
            },
            "--pairs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.host_pairs = n,
                _ => return refuse("--pairs needs a positive integer"),
            },
            "--seed" | "-s" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(s) => cfg.seed = s,
                None => return refuse("--seed needs an integer"),
            },
            "--out" | "-o" => match path_operand(it.next()) {
                Some(dir) => out_dir = dir,
                None => return refuse("--out needs a directory"),
            },
            "--resume" => opts.resume = true,
            "--stop-after-checkpoints" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(k) if k >= 1 => opts.stop_after_checkpoints = Some(k),
                _ => return refuse("--stop-after-checkpoints needs a positive integer"),
            },
            other => return refuse(format!("unknown weather flag '{other}'")),
        }
    }

    eprintln!(
        ">> weather: {} at {:.0}% payload utilization (amplitude {:.0}%), {:.2} simulated hours, \
         {}s windows, checkpoint every {} windows{}...",
        cfg.protocol.name(),
        cfg.utilization * 100.0,
        cfg.amplitude * 100.0,
        cfg.duration.as_secs_f64() / 3600.0,
        cfg.window.as_secs_f64(),
        cfg.checkpoint_every,
        if opts.resume { " (resuming)" } else { "" }
    );
    let started = std::time::Instant::now();
    let out = match weather::run_weather(&cfg, &out_dir, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("weather run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if out.stopped_early {
        eprintln!(
            ">> stopped after checkpoint as requested: {} windows emitted, {} flows started; \
             resume with --resume",
            out.windows, out.started
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "weather: {} started, {} completed, {} aborted, {} censored over {} windows \
         ({:.0} flows/hour)",
        out.started, out.completed, out.aborted, out.censored, out.windows, out.flows_per_hour
    );
    println!(
        "steady-state FCT: mean {:.1} ms, p50 {:.1} ms, p99 {:.1} ms ({} receivers reaped, \
         sketch {} bytes)",
        out.fct_ms.0, out.fct_ms.1, out.fct_ms.2, out.reaped, out.sketch_mem_bytes
    );
    eprintln!(
        ">> done in {:.1}s wall (peak rss {:.0} MiB); outputs in {}",
        started.elapsed().as_secs_f64(),
        weather::peak_rss_mb().unwrap_or(0.0),
        out_dir.display()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return trace_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("simcheck") {
        return simcheck_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("weather") {
        return weather_main(args.split_off(1));
    }
    if args.is_empty() {
        return refuse(
            "usage: repro <experiment>... [--quick] [--scale quick|full] [--jobs N] [--shards N] [--telemetry FILE] [--chart] [--out DIR] | repro all | repro list | repro weather [...]",
        );
    }

    let mut ctx = RunCtx::new(Scale::Full);
    let mut chart = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "-q" => ctx.scale = Scale::Quick,
            "--scale" => match it.next().as_deref() {
                Some("quick") => ctx.scale = Scale::Quick,
                Some("full") => ctx.scale = Scale::Full,
                other => return refuse(format!("--scale needs 'quick' or 'full', got {other:?}")),
            },
            "--jobs" | "-j" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => ctx.jobs = n,
                _ => return refuse("--jobs needs a positive integer"),
            },
            "--shards" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => ctx.shards = n,
                _ => return refuse("--shards needs a positive integer"),
            },
            "--telemetry" => match path_operand(it.next()) {
                Some(path) => ctx.telemetry = Some(path),
                None => return refuse("--telemetry needs a file path"),
            },
            "--chart" | "-c" => chart = true,
            "--out" | "-o" => match path_operand(it.next()) {
                Some(dir) => out_dir = Some(dir),
                None => return refuse("--out needs a directory"),
            },
            "list" => {
                println!("experiments:");
                for id in distinct_experiment_ids() {
                    println!("  {id}");
                }
                println!("aliases: fig1 (with fig12), fig5/fig7/fig8 (with fig6)");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return refuse(format!("unknown flag '{other}'")),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = distinct_experiment_ids()
            .into_iter()
            .map(String::from)
            .collect();
    }
    let mut runs = Vec::new();
    for id in experiments {
        match experiment(&id) {
            Some(figures) => runs.push((id, figures)),
            None => return refuse(format!("unknown experiment '{id}'; try `repro list`")),
        }
    }

    ctx.progress = true;
    let started = std::time::Instant::now();
    let mut entries: Vec<ExperimentEntry> = Vec::new();
    for (id, figures) in &runs {
        eprintln!(
            ">> running {id} ({:?} scale, {} workers)...",
            ctx.scale, ctx.jobs
        );
        let exp_started = std::time::Instant::now();
        let mut figure_ids: Vec<String> = Vec::new();
        for fig in figures(&ctx) {
            figure_ids.push(fig.id.to_string());
            println!("{}", fig.render_text());
            if chart {
                println!("{}", fig.render_ascii_chart());
            }
            if let Some(dir) = &out_dir {
                if let Err(e) = fig.write_csv(dir).and_then(|()| fig.write_gnuplot(dir)) {
                    eprintln!("failed to write CSV/gnuplot for {}: {e}", fig.id);
                    return ExitCode::FAILURE;
                }
            }
        }
        let wall_s = exp_started.elapsed().as_secs_f64();
        let tally = ctx.take_tally();
        report_jobs(id, wall_s, ctx.jobs, &tally.jobs);
        entries.push(ExperimentEntry {
            id: id.clone(),
            figures: figure_ids,
            jobs_run: tally.jobs.len(),
            events: tally.jobs.iter().map(|m| m.events).sum(),
            virtual_ns: tally.jobs.iter().map(|m| m.virtual_ns).sum(),
            sketch_mem_bytes: tally.sketch_mem_bytes,
            wall_s,
        });
        eprintln!(
            ">> {id} done in {wall_s:.1}s (peak rss {:.0} MiB)",
            weather::peak_rss_mb().unwrap_or(0.0)
        );
    }
    if let Some(dir) = &out_dir {
        let manifest = Manifest {
            scale: format!("{:?}", ctx.scale).to_lowercase(),
            schemes: Protocol::ALL.iter().map(|p| p.name().to_string()).collect(),
            experiments: entries,
            jobs: ctx.jobs,
            shards: ctx.shards,
            peak_rss_mb: weather::peak_rss_mb().unwrap_or(0.0) as u64,
        };
        let path = dir.join("manifest.json");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, manifest.render_json()))
        {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(">> manifest written to {}", path.display());
    }
    eprintln!(">> done in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
