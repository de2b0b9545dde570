//! Parallel experiment execution: a fixed-size worker pool fanning out
//! independent simulation jobs.
//!
//! Every experiment in `figures/` decomposes into cells — one simulation
//! per (figure, seed, protocol, load-point) — that share no state. This
//! module runs such cells on a pool of OS threads while keeping the
//! results **deterministic**: jobs carry stable keys, results are returned
//! in submission order regardless of completion order, and nothing a job
//! prints or returns depends on the worker count. `repro --jobs 1` and
//! `--jobs 8` therefore produce byte-identical `out/` trees.
//!
//! Panics inside a job are isolated with [`std::panic::catch_unwind`]: one
//! diverging simulation aborts that cell, not the whole sweep. Each job
//! also reports wall-clock time, simulated virtual time, and event count
//! (fed by the runners through [`meter_add`]), which `repro` summarizes on
//! stderr — never into `out/`, preserving byte-identity.
//!
//! There are no process-global settings. A [`RunCtx`] carries what one
//! `repro` invocation configures — scale, job count, shard-thread count,
//! telemetry path, progress switch — and tallies the jobs run under it, so
//! two configurations can run side by side in one process. What stays
//! thread-local is scoped to a job: its meter, its watchdog caps, and the
//! flag that runs a nested pool inline. `execute` installs them for one
//! job and restores the outer job's values afterwards. Threading a meter
//! through every runner instead would add a parameter to about fifteen
//! functions and change nothing anyone can observe.

use crate::Scale;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of work: a stable key (used in progress lines, metrics, and
/// panic reports), the closure that computes the result, and the job's
/// watchdog caps.
pub struct Job<'a, T> {
    /// Stable identifier, e.g. `"fig12/Halfback/u35"`.
    pub key: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
    caps: (u64, u64),
}

impl<'a, T> Job<'a, T> {
    /// Package a closure as a job (no watchdog caps).
    pub fn new(key: impl Into<String>, f: impl FnOnce() -> T + Send + 'a) -> Job<'a, T> {
        Job {
            key: key.into(),
            run: Box::new(f),
            caps: (0, 0),
        }
    }

    /// Run this job under watchdog caps (0 disables a cap): a job whose
    /// simulations exceed either cap panics with a diagnostic, which the
    /// pool's isolation turns into a failed result, so a livelocked cell
    /// fails alone instead of hanging the sweep. Checked cooperatively by
    /// the runners via [`check_caps`].
    pub fn with_caps(mut self, virtual_ns: u64, events: u64) -> Job<'a, T> {
        self.caps = (virtual_ns, events);
        self
    }
}

/// A job that panicked instead of returning.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job's key.
    pub key: String,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' panicked: {}", self.key, self.message)
    }
}

/// Timing record of one completed job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// The job's key.
    pub key: String,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Simulated virtual time advanced by the job's simulations (ns).
    pub virtual_ns: u64,
    /// Discrete events processed by the job's simulations.
    pub events: u64,
    /// Whether the job returned normally.
    pub ok: bool,
}

/// One run's configuration — exactly what `repro`'s `--quick`/`--scale`,
/// `--jobs`, `--shards` and `--telemetry` flags and its progress switch
/// set — plus the tally of the jobs run under it.
#[derive(Debug)]
pub struct RunCtx {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker-pool size for [`run_jobs`].
    pub jobs: usize,
    /// Shard-thread count for sharded scenarios. Like `jobs`, this only
    /// changes how partitions map onto threads; the partition count — and
    /// therefore the output — is fixed by the scenario.
    pub shards: usize,
    /// Shard-telemetry JSONL destination; `None` keeps every telemetry
    /// branch on its cold path.
    pub telemetry: Option<PathBuf>,
    /// Per-job progress lines and long-run heartbeats on stderr.
    pub progress: bool,
    tally: Mutex<Tally>,
}

/// Jobs panic inside `catch_unwind`, never while holding the tally lock.
const TALLY_LOCK: &str = "tally lock poisoned";

/// What ran under a [`RunCtx`] since the last [`RunCtx::take_tally`].
#[derive(Debug, Default)]
pub struct Tally {
    /// Metrics of every completed job, each pool run in submission order
    /// (independent of the worker count).
    pub jobs: Vec<JobMetrics>,
    /// High-water mark of the sketch memory scenarios noted — bucket
    /// counts, not allocator state, so deterministic.
    pub sketch_mem_bytes: u64,
}

impl RunCtx {
    /// A context at `scale` with one worker and one shard thread per core,
    /// no telemetry and no progress output.
    pub fn new(scale: Scale) -> RunCtx {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        RunCtx {
            scale,
            jobs: cores,
            shards: cores,
            telemetry: None,
            progress: false,
            tally: Mutex::default(),
        }
    }

    /// Note a scenario's sketch footprint; the tally keeps the maximum.
    pub fn record_sketch_mem(&self, bytes: usize) {
        let mut tally = self.tally.lock().expect(TALLY_LOCK);
        tally.sketch_mem_bytes = tally.sketch_mem_bytes.max(bytes as u64);
    }

    /// Drain the tally, leaving an empty one.
    pub fn take_tally(&self) -> Tally {
        std::mem::take(&mut self.tally.lock().expect(TALLY_LOCK))
    }
}

thread_local! {
    /// (virtual ns, events) accumulated by the job running on this thread.
    static METER: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Watchdog caps (virtual ns, events) of the job running on this
    /// thread; (0, 0) — disabled — outside any job.
    static CAPS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Set while a job executes: nested `run_jobs` calls then run inline
    /// instead of spawning a second pool.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Credit the currently running job with simulated time and events.
/// Called by the runners after each simulation; a no-op outside a job.
pub fn meter_add(virtual_ns: u64, events: u64) {
    METER.with(|m| {
        let (v, e) = m.get();
        m.set((v.saturating_add(virtual_ns), e.saturating_add(events)));
    });
}

/// The watchdog caps `(virtual_ns, events)` of the job running on this
/// thread ([`Job::with_caps`]); 0 means disabled, as is everything outside
/// a job.
pub fn job_caps() -> (u64, u64) {
    CAPS.with(Cell::get)
}

/// Watchdog check: panic if the job's accumulated meter plus the
/// in-progress simulation's `(extra_virtual_ns, extra_events)` exceeds a
/// cap. A no-op when both caps are disabled.
pub fn check_caps(extra_virtual_ns: u64, extra_events: u64) {
    let (cap_ns, cap_ev) = job_caps();
    if cap_ns == 0 && cap_ev == 0 {
        return;
    }
    let (v, e) = METER.with(|m| m.get());
    let v = v.saturating_add(extra_virtual_ns);
    let e = e.saturating_add(extra_events);
    if cap_ns != 0 && v > cap_ns {
        panic!(
            "watchdog: job exceeded its virtual-time cap \
             ({:.1}s > {:.1}s after {e} events) — livelocked simulation?",
            v as f64 / 1e9,
            cap_ns as f64 / 1e9,
        );
    }
    if cap_ev != 0 && e > cap_ev {
        panic!(
            "watchdog: job exceeded its event-count cap \
             ({e} > {cap_ev} events at virtual {:.1}s) — livelocked simulation?",
            v as f64 / 1e9,
        );
    }
}

/// A job's result together with its metrics.
type Outcome<T> = (Result<T, JobPanic>, JobMetrics);

/// Run one job under the panic guard and the meter. Returns the result
/// together with the job's metrics; the caller files the metrics in the
/// context's tally (one lock per pool run, in submission order, instead of
/// a contended push per job).
fn execute<T>(job: Job<'_, T>, done: &AtomicUsize, total: usize, progress: bool) -> Outcome<T> {
    let key = job.key;
    let run = job.run;
    // All three are restored afterwards, so a job run inline inside another
    // leaves the outer job's meter, caps and in-job flag as they were.
    let outer_meter = METER.with(|m| m.replace((0, 0)));
    let outer_in_job = IN_JOB.with(|f| f.replace(true));
    let outer_caps = CAPS.with(|c| c.replace(job.caps));
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(run));
    let wall = t0.elapsed();
    CAPS.with(|c| c.set(outer_caps));
    IN_JOB.with(|f| f.set(outer_in_job));
    let (virtual_ns, events) = METER.with(|m| m.replace(outer_meter));
    let ok = result.is_ok();
    let n_done = done.fetch_add(1, Ordering::Relaxed) + 1;
    if progress {
        eprintln!(
            ":: [{n_done}/{total}] {key}: wall {:.2}s, virtual {:.1}s, {events} events{}",
            wall.as_secs_f64(),
            virtual_ns as f64 / 1e9,
            if ok { "" } else { " [PANICKED]" },
        );
    }
    let metrics = JobMetrics {
        key: key.clone(),
        wall,
        virtual_ns,
        events,
        ok,
    };
    let result = result.map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobPanic { key, message }
    });
    (result, metrics)
}

/// Run jobs on a pool of `ctx.jobs` threads; results come back in
/// submission order, one `Result` per job, and every job's metrics go to
/// the context's tally.
///
/// Scheduling is work-stealing from a shared queue, so execution *order*
/// varies with the worker count — but results *and metrics* are collected
/// by submission slot, so the returned vector, the tally, and anything
/// derived from them do not.
pub fn run_jobs<T: Send>(ctx: &RunCtx, jobs: Vec<Job<'_, T>>) -> Vec<Result<T, JobPanic>> {
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    // Serial path: one worker, one job, or a nested call from inside a
    // running job (the pool is already busy executing us).
    let outcomes: Vec<Outcome<T>> = if ctx.jobs <= 1 || total <= 1 || IN_JOB.with(Cell::get) {
        jobs.into_iter()
            .map(|job| execute(job, &done, total, ctx.progress))
            .collect()
    } else {
        let slots: Mutex<Vec<Option<Job<'_, T>>>> =
            Mutex::new(jobs.into_iter().map(Some).collect());
        let results: Mutex<Vec<Option<Outcome<T>>>> =
            Mutex::new((0..total).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..ctx.jobs.min(total) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = slots.lock().unwrap()[i].take().expect("job taken twice");
                    let outcome = execute(job, &done, total, ctx.progress);
                    results.lock().unwrap()[i] = Some(outcome);
                });
            }
        });
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("worker exited without storing a result"))
            .collect()
    };
    let mut tally = ctx.tally.lock().expect(TALLY_LOCK);
    outcomes
        .into_iter()
        .map(|(result, metrics)| {
            tally.jobs.push(metrics);
            result
        })
        .collect()
}

/// Map `f` over `items` in parallel, preserving order. Panics (with the
/// offending job's key) if any item's job panics — the behaviour the
/// figure modules had when they ran their loops inline.
pub fn parallel_map<I, T>(
    ctx: &RunCtx,
    items: Vec<I>,
    key: impl Fn(&I) -> String,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let f = &f;
    let jobs: Vec<Job<'_, T>> = items
        .into_iter()
        .map(|item| {
            let k = key(&item);
            Job::new(k, move || f(item))
        })
        .collect();
    run_jobs(ctx, jobs)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(jobs: usize) -> RunCtx {
        let mut ctx = RunCtx::new(Scale::Quick);
        ctx.jobs = jobs;
        ctx
    }

    #[test]
    fn results_in_submission_order() {
        let jobs: Vec<Job<'_, usize>> = (0..64)
            .map(|i| Job::new(format!("j{i}"), move || i * i))
            .collect();
        let out = run_jobs(&ctx(8), jobs);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * i);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            (0..32)
                .map(|i| Job::new(format!("j{i}"), move || i * 7 + 1))
                .collect::<Vec<Job<'_, usize>>>()
        };
        let serial: Vec<usize> = run_jobs(&ctx(1), mk())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let parallel: Vec<usize> = run_jobs(&ctx(8), mk())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panics_are_isolated() {
        let jobs: Vec<Job<'_, u32>> = vec![
            Job::new("ok1", || 1),
            Job::new("boom", || panic!("deliberate test panic")),
            Job::new("ok2", || 2),
        ];
        let out = run_jobs(&ctx(4), jobs);
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.key, "boom");
        assert!(err.message.contains("deliberate test panic"));
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn nested_run_jobs_runs_inline() {
        let jobs: Vec<Job<'_, usize>> = (0..4)
            .map(|i| {
                Job::new(format!("outer{i}"), move || {
                    let inner: Vec<Job<'_, usize>> = (0..3)
                        .map(|j| Job::new(format!("inner{j}"), move || i + j))
                        .collect();
                    run_jobs(&ctx(8), inner)
                        .into_iter()
                        .map(|r| r.unwrap())
                        .sum()
                })
            })
            .collect();
        let out = run_jobs(&ctx(2), jobs);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), 3 * i + 3);
        }
    }

    #[test]
    fn meter_accumulates_per_job() {
        let jobs: Vec<Job<'_, ()>> = vec![
            Job::new("meter/a", || meter_add(10, 2)),
            Job::new("meter/b", || {
                meter_add(5, 1);
                meter_add(5, 1);
            }),
        ];
        let ctx = ctx(1);
        run_jobs(&ctx, jobs);
        let m = ctx.take_tally().jobs;
        assert_eq!(m.len(), 2);
        assert_eq!((m[0].virtual_ns, m[0].events), (10, 2));
        assert_eq!((m[1].virtual_ns, m[1].events), (10, 2));
        assert!(m.iter().all(|x| x.ok));
    }

    #[test]
    fn nested_jobs_keep_the_outer_jobs_meter() {
        let ctx = ctx(4);
        let outer = Job::new("outer", || {
            let me = std::thread::current().id();
            meter_add(0, 5);
            let mut inline = true;
            for call in 0..2 {
                let inner: Vec<Job<'_, bool>> = (0..3)
                    .map(|j| {
                        Job::new(format!("inner{call}/{j}"), move || {
                            meter_add(0, 1);
                            std::thread::current().id() == me
                        })
                    })
                    .collect();
                inline &= run_jobs(&ctx, inner).into_iter().all(|r| r.unwrap());
            }
            meter_add(0, 5);
            inline
        });
        let inline = run_jobs(&ctx, vec![outer]).remove(0).unwrap();
        assert!(inline, "a nested call started a pool inside a job");
        let tally = ctx.take_tally();
        assert_eq!(tally.jobs.len(), 7);
        let outer = tally.jobs.iter().find(|m| m.key == "outer").unwrap();
        assert_eq!(outer.events, 10, "the outer job's meter was reset");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(
            &ctx(4),
            (0..20).collect(),
            |i| format!("k{i}"),
            |i: i32| i * 2,
        );
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// A livelocked cell: events pile up without the virtual clock
    /// advancing past the cap.
    fn livelock() -> u32 {
        for _ in 0..100 {
            meter_add(0, 5_000);
            check_caps(0, 0);
        }
        2
    }

    #[test]
    fn watchdog_trips_through_panic_isolation() {
        let jobs: Vec<Job<'_, u32>> = vec![
            Job::new("wd/ok", || {
                meter_add(500, 100);
                check_caps(0, 0);
                1
            })
            .with_caps(1_000_000_000, 10_000),
            Job::new("wd/livelock", livelock).with_caps(1_000_000_000, 10_000),
            Job::new("wd/after", || 3),
        ];
        let out = run_jobs(&ctx(1), jobs);
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        let err = out[1].as_ref().unwrap_err();
        assert!(
            err.message.contains("watchdog") && err.message.contains("event-count cap"),
            "unexpected watchdog message: {}",
            err.message
        );
        assert_eq!(*out[2].as_ref().unwrap(), 3, "pool survives a cap trip");
        assert_eq!(job_caps(), (0, 0), "caps end with the job");
    }

    #[test]
    fn watchdog_disabled_is_noop() {
        // Outside a job the caps are off, whatever other threads run.
        assert_eq!(job_caps(), (0, 0));
        // Would trip any finite cap; must not panic while disabled.
        meter_add(u64::MAX / 2, u64::MAX / 2);
        check_caps(u64::MAX / 2, u64::MAX / 2);
    }

    #[test]
    fn nested_job_restores_the_outer_caps() {
        let jobs = vec![Job::new("outer", || {
            let inner = vec![Job::new("inner", job_caps).with_caps(7, 8)];
            let inner_caps = run_jobs(&ctx(4), inner).remove(0).unwrap();
            (inner_caps, job_caps())
        })
        .with_caps(5, 6)];
        let out = run_jobs(&ctx(1), jobs).remove(0).unwrap();
        assert_eq!(out, ((7, 8), (5, 6)));
    }

    #[test]
    fn caps_of_one_pool_never_reach_another_thread() {
        use crate::simcheck::{CaseSpec, Rig, Selection, Topology};
        use crate::Protocol;
        use netsim::topology::DumbbellSpec;
        use netsim::{FlowId, SimDuration, SimTime};
        use std::sync::Barrier;

        const EVENT_CAP: u64 = 1_000;
        // The capped job holds its caps across both barriers; the other
        // thread runs its whole simulation in between.
        let installed = Barrier::new(2);
        let finished = Barrier::new(2);
        std::thread::scope(|scope| {
            let capped = scope.spawn(|| {
                let job = Job::new("caps/livelock", || {
                    installed.wait();
                    finished.wait();
                    livelock()
                })
                .with_caps(1_000_000_000, EVENT_CAP);
                run_jobs(&ctx(1), vec![job]).remove(0)
            });

            installed.wait();
            // Caught, so a trip here still releases the capped thread.
            let uncapped = catch_unwind(|| {
                let topology = Topology::Dumbbell(DumbbellSpec::emulab(1));
                let case = CaseSpec::new(1, topology, Vec::new(), SimDuration::ZERO);
                let mut rig = Rig::new(&case, &Selection::full(&case), false);
                // A packet costs an event per loss-free hop, plus one per
                // wait in a queue: 4 MB takes ~20k events.
                rig.start(FlowId(1), 0, 4_000_000, Protocol::Tcp);
                rig.run_until(SimTime::ZERO + SimDuration::from_secs(30));
                rig.sim.events_processed()
            });
            finished.wait();

            let events = uncapped.expect("another thread's caps tripped an uncapped simulation");
            // Well past the cap and past the runner's 4096-event check stride.
            assert!(events > 10 * EVENT_CAP, "only {events} events");
            let err = capped.join().unwrap().unwrap_err();
            assert!(err.message.contains("event-count cap"), "{}", err.message);
        });
    }
}
