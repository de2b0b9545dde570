//! The tentpole guarantee of the parallel harness: the worker count is
//! invisible in the output. Running a real figure with 1 worker and with 8
//! must yield byte-identical CSV and summary files, and a panicking job
//! must not take down its siblings.

use scenarios::figures::run_experiment;
use scenarios::harness::{run_jobs, Job, JobMetrics, RunCtx};
use scenarios::Scale;
use std::fs;
use std::path::{Path, PathBuf};

/// A quick-scale context with `jobs` workers and `shards` shard threads.
fn ctx(jobs: usize, shards: usize) -> RunCtx {
    let mut ctx = RunCtx::new(Scale::Quick);
    ctx.jobs = jobs;
    ctx.shards = shards;
    ctx
}

/// Render `experiment` under `ctx` and write its CSV/summary files under
/// `dir`.
fn render_to(experiment: &str, ctx: &RunCtx, dir: &Path) {
    let figs = run_experiment(experiment, ctx).expect("known experiment");
    for fig in figs {
        fig.write_csv(dir).unwrap();
    }
}

/// Read every file under `dir` as (name, bytes), sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("halfback-harness-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let d1 = scratch("serial");
    let d8 = scratch("parallel");
    // fig9 is the cheapest multi-cell experiment: 4 home networks x 2
    // protocols = 8 jobs, enough to exercise real out-of-order completion.
    render_to("fig9", &ctx(1, 1), &d1);
    render_to("fig9", &ctx(8, 1), &d8);

    let a = snapshot(&d1);
    let b = snapshot(&d8);
    assert!(!a.is_empty(), "no output files written");
    assert_eq!(
        a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        "file sets differ between --jobs 1 and --jobs 8"
    );
    for ((name, bytes1), (_, bytes8)) in a.iter().zip(&b) {
        assert_eq!(
            bytes1, bytes8,
            "{name} differs between --jobs 1 and --jobs 8"
        );
    }
    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}

/// The chaos sweep adds fault-injected simulations and per-cell watchdog
/// caps on top of the harness; none of it may leak worker-count effects.
/// `repro chaos --jobs 1`, `--jobs 3`, and `--jobs 4` must write
/// identical bytes. The odd worker count matters since the packet arena
/// landed: each worker's simulator recycles arena slots in its own LIFO
/// order, and three workers over eight cells gives maximally uneven
/// cell-to-worker assignments — if slot reuse leaked into output (stale
/// handle read, id minted from a slot index), this is where it shows.
#[test]
fn chaos_runs_are_byte_identical_across_worker_counts() {
    let d1 = scratch("chaos-serial");
    let d3 = scratch("chaos-three");
    let d4 = scratch("chaos-parallel");
    render_to("chaos", &ctx(1, 1), &d1);
    render_to("chaos", &ctx(3, 1), &d3);
    render_to("chaos", &ctx(4, 1), &d4);

    let a = snapshot(&d1);
    let b = snapshot(&d4);
    let c = snapshot(&d3);
    assert!(!a.is_empty(), "no chaos output files written");
    assert_eq!(
        a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        "file sets differ between --jobs 1 and --jobs 4"
    );
    for ((name, bytes1), (_, bytes4)) in a.iter().zip(&b) {
        assert_eq!(
            bytes1, bytes4,
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }
    assert_eq!(a, c, "output differs between --jobs 1 and --jobs 3");
    let _ = fs::remove_dir_all(&d3);
    let summary = a
        .iter()
        .find(|(n, _)| n == "chaos.summary.txt")
        .expect("chaos summary written");
    let text = String::from_utf8(summary.1.clone()).unwrap();
    assert!(
        text.contains("invariant violations: 0"),
        "chaos summary reports violations:\n{text}"
    );
    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d4);
}

/// The deterministic lines `repro` writes into `manifest.json` for one
/// experiment, from the tally its context drained:
/// `(jobs_run, events, virtual_ns, sketch_mem_bytes)`.
fn manifest_tally(ctx: &RunCtx) -> (usize, u64, u64, u64) {
    let tally = ctx.take_tally();
    (
        tally.jobs.len(),
        tally.jobs.iter().map(|m| m.events).sum(),
        tally.jobs.iter().map(|m| m.virtual_ns).sum(),
        tally.sketch_mem_bytes,
    )
}

/// The sharded engine's contract, mirroring the `--jobs` batteries above:
/// the shard-thread count maps partitions onto workers but never shapes
/// the simulation, so `--shards 1`, `2`, and `4` must write byte-identical
/// files for the sharded scaled-PlanetLab scenario, and meter the same
/// work into the manifest.
#[test]
fn sharded_scenario_is_byte_identical_across_shard_counts() {
    let d1 = scratch("shards1");
    let d2 = scratch("shards2");
    let d4 = scratch("shards4");
    let tallies: Vec<_> = [(1, &d1), (2, &d2), (4, &d4)]
        .into_iter()
        .map(|(shards, dir)| {
            let ctx = ctx(1, shards);
            render_to("planetlab100k", &ctx, dir);
            manifest_tally(&ctx)
        })
        .collect();
    assert_eq!(tallies[0].0, 1, "planetlab100k runs as one job");
    assert!(tallies[0].1 > 0 && tallies[0].2 > 0 && tallies[0].3 > 0);
    assert_eq!(
        tallies[0], tallies[1],
        "manifest tally differs at --shards 2"
    );
    assert_eq!(
        tallies[0], tallies[2],
        "manifest tally differs at --shards 4"
    );

    let a = snapshot(&d1);
    let b = snapshot(&d2);
    let c = snapshot(&d4);
    assert!(!a.is_empty(), "no sharded output files written");
    assert_eq!(a, b, "output differs between --shards 1 and --shards 2");
    assert_eq!(a, c, "output differs between --shards 1 and --shards 4");
    // The scenario aggregates FCTs through the quantile sketch now; make
    // sure the byte-identity above is actually exercising that path.
    let summary = a
        .iter()
        .find(|(n, _)| n.ends_with("summary.txt"))
        .expect("sharded summary written");
    let text = String::from_utf8(summary.1.clone()).unwrap();
    assert!(
        text.contains("(sketch"),
        "sharded summary is not sketch-backed:\n{text}"
    );
    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d2);
    let _ = fs::remove_dir_all(&d4);
}

/// `--telemetry` writes a schema-tagged header and one record per
/// (window, partition), each carrying the full field set with its
/// wall-clock measurements quarantined in a trailing `"wall":{…}` object.
/// Everything outside that object is virtual-time deterministic, so the
/// file must be byte-identical across shard counts once it is stripped.
#[test]
fn telemetry_is_byte_identical_across_shard_counts_outside_wall() {
    const FIELDS: [&str; 10] = [
        "\"window\":",
        "\"part\":",
        "\"w_end_ns\":",
        "\"events\":",
        "\"deposited\":",
        "\"injected\":",
        "\"mailbox_max\":",
        "\"wheel_depth\":",
        "\"arena_live\":",
        "\"arena_hiwater\":",
    ];
    let dir = scratch("telemetry");
    let stripped = |shards: usize| -> Vec<String> {
        let mut ctx = ctx(1, shards);
        let path = dir.join(format!("t{shards}.jsonl"));
        ctx.telemetry = Some(path.clone());
        render_to("planetlab100k", &ctx, &dir.join(format!("out{shards}")));
        let text = fs::read_to_string(&path).expect("telemetry file written");
        let mut lines = text.lines();
        let header = lines.next().expect("telemetry header");
        assert!(
            header.contains("\"schema\":\"halfback-telemetry-v1\""),
            "{header}"
        );
        let body: Vec<String> = lines
            .map(|l| {
                assert!(l.starts_with("{\"kind\":\"window\","), "not a window: {l}");
                let mut at = 0;
                for field in FIELDS {
                    at += l[at..]
                        .find(field)
                        .unwrap_or_else(|| panic!("{field} missing or out of order: {l}"));
                }
                let wall = l.find(",\"wall\":{").expect("wall object");
                let (barrier, window) = l[wall..]
                    .strip_prefix(",\"wall\":{\"barrier_ns\":")
                    .and_then(|w| w.strip_suffix("}}"))
                    .and_then(|w| w.split_once(",\"window_ns\":"))
                    .unwrap_or_else(|| panic!("wall object not last: {l}"));
                assert!(barrier.parse::<u64>().is_ok() && window.parse::<u64>().is_ok());
                format!("{}}}", &l[..wall])
            })
            .collect();
        assert!(!body.is_empty(), "no window records");
        std::iter::once(header.to_string()).chain(body).collect()
    };
    let one = stripped(1);
    let four = stripped(4);
    assert_eq!(
        one, four,
        "telemetry differs between --shards 1 and --shards 4 outside \"wall\""
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Sketch-backed summaries across the *jobs* axis: job-local sketches
/// merged in submission order must print the byte-identical line whether
/// the partial sketches were built on 1 worker or 4. Bucket counts are
/// integers, so the merge is exact — this is the property that lets
/// flow-scaled runs drop per-flow samples without giving up `--jobs`
/// invariance. The line is printed by the function `planetlab100k` uses.
#[test]
fn sketch_summaries_are_byte_identical_across_worker_counts() {
    use netsim::stats::LogHistogram;
    use scenarios::metrics::sketch_line;

    let render = |n_workers: usize| -> String {
        let jobs: Vec<Job<'_, LogHistogram>> = (0..8u64)
            .map(|part| {
                Job::new(format!("part{part}"), move || {
                    let mut h = LogHistogram::new();
                    let mut lcg = 0x9e3779b97f4a7c15u64 ^ part.wrapping_mul(0xff51afd7ed558ccd);
                    for _ in 0..5_000 {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        h.add(((lcg >> 33) % 1_000_000 + 1) as f64 / 1e3);
                    }
                    h
                })
            })
            .collect();
        let mut merged = LogHistogram::new();
        for h in run_jobs(&ctx(n_workers, 1), jobs) {
            merged.merge(&h.expect("sketch job panicked"));
        }
        sketch_line("fct_ms", &merged)
    };

    let serial = render(1);
    let parallel = render(4);
    assert_eq!(
        serial, parallel,
        "sketch summary differs between 1 and 4 workers"
    );
    assert!(
        serial.starts_with("fct_ms: n=40000 ") && serial.contains("(sketch"),
        "summary line is not sketch-backed: {serial}"
    );
}

/// `--shards` must be inert for cell-parallel experiments: fig6 and chaos
/// fan out over the jobs pool and never consult the shard setting, and
/// this pins that — a future scenario quietly branching on `ctx.shards`
/// outside a sharded engine run would break here.
#[test]
fn shard_setting_does_not_leak_into_job_parallel_experiments() {
    for experiment in ["fig6", "chaos"] {
        let d1 = scratch(&format!("{experiment}-shardflag1"));
        let d4 = scratch(&format!("{experiment}-shardflag4"));
        render_to(experiment, &ctx(2, 1), &d1);
        render_to(experiment, &ctx(2, 4), &d4);
        let a = snapshot(&d1);
        let b = snapshot(&d4);
        assert!(!a.is_empty(), "no {experiment} output files written");
        assert_eq!(a, b, "{experiment} output changed with the shard setting");
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d4);
    }
}

/// The flight-recorder export is a pure function of `(scenario, seed)`:
/// running the same trace specs as harness jobs on 1 worker and on 4 must
/// produce byte-identical JSONL and time–sequence CSV, and repeating the
/// whole thing must reproduce the same bytes again.
#[test]
fn trace_exports_are_byte_identical_across_worker_counts() {
    use scenarios::trace::{run_trace, TraceSpec};
    use scenarios::Protocol;

    let specs = || {
        vec![
            TraceSpec::default(),
            TraceSpec {
                seed: 7,
                flow: 2,
                ..Default::default()
            },
            // Flow 3 starts at t = 1000 ms, inside a chaos down window, so
            // the trace must show wire-level fault events.
            TraceSpec {
                figure: "chaos".to_string(),
                protocol: Protocol::Tcp,
                seed: 9,
                flow: 3,
                ..Default::default()
            },
        ]
    };
    let render = |n_workers: usize| -> Vec<(String, String)> {
        let jobs: Vec<Job<'_, (String, String)>> = specs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                Job::new(format!("trace{i}"), move || {
                    let out = run_trace(&spec).expect("trace spec is valid");
                    (out.jsonl, out.timeseq_csv)
                })
            })
            .collect();
        run_jobs(&ctx(n_workers, 1), jobs)
            .into_iter()
            .map(|r| r.expect("trace job panicked"))
            .collect()
    };

    let serial = render(1);
    let parallel = render(4);
    let again = render(4);
    assert_eq!(serial.len(), 3);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "trace {i} JSONL differs between 1 and 4 workers");
        assert_eq!(s.1, p.1, "trace {i} CSV differs between 1 and 4 workers");
    }
    assert_eq!(parallel, again, "same-seed rerun changed trace bytes");
    // Sanity: the faulty-link spec produced wire-level fault events.
    assert!(
        serial[2].0.contains("\"fault_drop\"") || serial[2].0.contains("\"blackhole\""),
        "chaos trace shows no fault events"
    );
}

/// The simcheck battery stacks random-case generation, shrinking, and
/// trace export on top of the harness; its rendered summary (and every
/// failing-case trace) must be byte-identical for any worker count, which
/// is what makes an emitted `repro simcheck --seed … --case …` command
/// trustworthy. The healthy battery is the default one `repro simcheck`
/// runs: `DEFAULT_CASES` cases at seed 42, every one clean.
#[test]
fn simcheck_batteries_are_byte_identical_across_worker_counts() {
    use scenarios::simcheck::{
        generate_case, run_battery, summarize, Battery, FaultEvent, FaultKind, DEFAULT_CASES,
    };

    let serial = run_battery(&ctx(1, 1), 42, DEFAULT_CASES);
    let parallel = run_battery(&ctx(4, 1), 42, DEFAULT_CASES);
    assert_eq!(
        serial.render_text(),
        parallel.render_text(),
        "simcheck summary differs between 1 and 4 workers"
    );
    assert_eq!(serial.failures(), 0, "healthy battery reported failures");
    assert!(serial.render_text().contains("invariant violations: 0"));
    assert!(serial.render_text().contains("watchdog trips: 0"));

    // A battery of failing cases exercises the full failure path — shrink,
    // repro command, trace export — and must stay deterministic too. Each
    // case gets hop 0 down for good and a 10 s horizon; a SYN gives up only
    // after ~63 s, so the terminal oracle fires on every one. The battery's
    // own job body runs them at one and at two workers.
    let planted = |id| {
        let mut spec = generate_case(42, id);
        let kind = FaultKind::Down {
            start_ms: 0,
            dur_ms: 1_000_000,
        };
        spec.faults.push(FaultEvent { hop: 0, kind });
        spec.horizon = netsim::SimDuration::from_secs(10);
        spec
    };
    let broken = |workers| {
        let jobs = (0..8)
            .map(|id| Job::new(format!("case{id}"), move || summarize(&planted(id))))
            .collect();
        let results = run_jobs(&ctx(workers, 1), jobs);
        let cases = results.into_iter().map(|r| r.unwrap()).collect();
        Battery { seed: 42, cases }
    };
    let (broken_a, broken_b) = (broken(1), broken(2));
    assert_eq!(broken_a.render_text(), broken_b.render_text());
    assert_eq!(broken_a.failures(), 8, "{}", broken_a.render_text());
    let text = broken_a.render_text();
    assert!(text.contains("FAILED [terminal]"), "{text}");
    assert!(
        text.contains("repro: repro simcheck --seed 42 --case"),
        "{text}"
    );
    for (a, b) in broken_a.cases.iter().zip(&broken_b.cases) {
        assert!(a.trace.as_deref().is_some_and(|t| !t.is_empty()));
        assert_eq!(a.trace, b.trace, "case {} trace not deterministic", a.id);
    }
}

#[test]
fn panicking_job_does_not_poison_the_pool() {
    // A realistic mix: simulation-sized jobs around one that dies.
    let jobs: Vec<Job<'_, usize>> = (0..6)
        .map(|i| {
            Job::new(format!("cell{i}"), move || {
                if i == 3 {
                    panic!("divergent simulation in cell {i}");
                }
                (0..1000).map(|x: usize| x.wrapping_mul(i)).sum::<usize>() & 0xff
            })
        })
        .collect();
    let ctx = ctx(4, 1);
    let out = run_jobs(&ctx, jobs);
    assert_eq!(out.len(), 6);
    for (i, r) in out.iter().enumerate() {
        if i == 3 {
            let err = r.as_ref().unwrap_err();
            assert_eq!(err.key, "cell3");
            assert!(err.message.contains("divergent simulation"));
        } else {
            assert!(r.is_ok(), "sibling job {i} was poisoned");
        }
    }
    // After the pool drains, metrics exist for every job including the
    // panicked one.
    let metrics = ctx.take_tally().jobs;
    assert_eq!(metrics.len(), 6);
    assert_eq!(metrics.iter().filter(|m| !m.ok).count(), 1);
}

/// Two configurations in one process at the same time: fig9 rendered
/// under a 1-job and a 4-job context on two threads must write identical
/// bytes, and each context's tally must list exactly its own jobs.
#[test]
fn concurrent_contexts_keep_their_own_tallies() {
    let serial = ctx(1, 1);
    let parallel = ctx(4, 1);
    let d1 = scratch("concurrent-serial");
    let d4 = scratch("concurrent-parallel");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (ctx, dir) in [(&serial, &d1), (&parallel, &d4)] {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                render_to("fig9", ctx, dir);
            });
        }
    });
    assert_eq!(
        snapshot(&d1),
        snapshot(&d4),
        "fig9 differs between concurrent 1-job and 4-job contexts"
    );
    let (a, b) = (serial.take_tally().jobs, parallel.take_tally().jobs);
    let keys = |jobs: &[JobMetrics]| jobs.iter().map(|m| m.key.clone()).collect::<Vec<_>>();
    assert_eq!(a.len(), 8, "{:?}", keys(&a));
    assert!(keys(&a).iter().all(|k| k.starts_with("fig9/")));
    assert_eq!(keys(&a), keys(&b), "tallies list different jobs");
    let events = |jobs: &[JobMetrics]| jobs.iter().map(|m| m.events).sum::<u64>();
    assert_eq!(
        events(&a),
        events(&b),
        "the two contexts metered different work"
    );
    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d4);
}
