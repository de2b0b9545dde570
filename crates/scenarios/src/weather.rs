//! Open-loop "internet weather" service mode (`repro weather`).
//!
//! Every figure runner in this crate is *closed-loop at the harness level*:
//! it materializes the full arrival schedule up front, runs the simulation
//! to quiescence, and keeps a [`FlowRecord`](transport::FlowRecord) per
//! flow. That shape cannot answer the paper's service question — does a
//! scheme stay well-behaved when short flows arrive forever? — because
//! memory grows with total flow count and the run has no notion of "still
//! going".
//!
//! This module is the open-loop counterpart. A streaming arrival process
//! ([`workload::DiurnalPoisson`] — Poisson with a sinusoidal daily rate
//! envelope) injects flows lazily onto a [`Rig`] — the Emulab dumbbell the
//! figures run on — one `run_until` at a time; senders run with record
//! retention off and publish completions to a bus the driver drains after
//! every arrival; receiver endpoints are reaped once their flows are safely
//! beyond the sender's worst-case give-up time. The result: a 15 Mbps-class
//! dumbbell sustains millions of flows per simulated hour for a simulated
//! day in O(windows + active flows) memory, with steady-state
//! FCT/abort/retransmit stats reported per window through a
//! [`WindowedSketch`]. Every window close is judged by [`Rig::audit`]'s
//! conservation and transport oracles; a violation fails the run with
//! `oracle <kind>: <detail>`.
//!
//! The second half of the mode is *checkpoint/restore*: at window
//! boundaries the driver serializes the full dynamic state — its own
//! accounting and arrival process, then the rig through [`Rig::save`]:
//! engine (clock, events, in-flight packets, RNG, timer slots, link
//! queues), every host pair (senders, receivers, timer routes, per-scheme
//! strategy state) and the shared TCP-Cache path cache — into a versioned
//! snapshot, written atomically. A
//! killed run resumes from the latest checkpoint and produces **byte
//! identical** output files to an uninterrupted run: structure is rebuilt
//! from configuration (validated against a fingerprint in the snapshot;
//! drift is refused), dynamic state is overlaid, and `windows.csv` is
//! truncated to the byte offset recorded in the checkpoint before
//! appending continues.

use crate::protocols::Protocol;
use crate::simcheck::{CaseReport, CaseSpec, Rig, Selection, Topology};
use netsim::json::Writer;
use netsim::rng::SimRng;
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::snap_struct;
use netsim::stats::{LogHistogram, WindowedSketch};
use netsim::topology::DumbbellSpec;
use netsim::{FlowId, SimDuration, SimTime};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use transport::{completion_bus, CompletionBus, Host};
use workload::{interarrival_for_utilization, DiurnalPoisson};

/// Checkpoint file magic: "HBWR" (HalfBack WeatheR).
const WEATHER_MAGIC: u32 = 0x4842_5752;
/// Bump on ANY layout change to the weather checkpoint (the engine and
/// host codecs carry their own versions/magics underneath this one).
/// Version 11: a Reactive sender no longer saves its probe limit, a
/// constant. Version 10: the engine snapshot underneath is version 6 (no
/// silent flag per link, no end-of-transmission entry that decides a
/// packet's fate); version 9 carried version 5, version 8 version 4.
const WEATHER_VERSION: u32 = 11;
/// Section magic guarding the driver-state section.
const SEC_DRIVER: u32 = 0x4842_0104;

/// Receivers are reaped once their completion instant trails virtual now
/// by this much. It comfortably exceeds the sender's worst-case give-up
/// horizon (~63 s of SYN/RTO exponential backoff), so a straggling
/// retransmit can never find its receiver missing.
const REAP_GRACE: SimDuration = SimDuration::from_secs(180);

/// Drain time after the last window: stragglers get this long to finish
/// before being counted as censored.
const FINAL_GRACE: SimDuration = SimDuration::from_secs(60);

/// The short-flow size mix, as (payload bytes, weight per 1000). Skewed
/// toward request/response-sized flows so a 15 Mbps bottleneck carries
/// hundreds of arrivals per second — the "internet weather" regime the
/// paper targets, where most flows fit in a handful of segments.
const FLOW_MIX: [(u64, usize); 4] = [(600, 600), (2_000, 300), (6_000, 90), (40_000, 10)];

/// Mean payload of `FLOW_MIX`, in bytes.
pub fn mean_flow_bytes() -> f64 {
    let total: u64 = FLOW_MIX.iter().map(|&(b, w)| b * w as u64).sum();
    total as f64 / 1000.0
}

/// Draw a payload size from [`FLOW_MIX`].
pub(crate) fn mix_bytes(rng: &mut SimRng) -> u64 {
    let roll = rng.index(1000);
    let mut acc = 0;
    for &(bytes, weight) in &FLOW_MIX {
        acc += weight;
        if roll < acc {
            return bytes;
        }
    }
    FLOW_MIX[FLOW_MIX.len() - 1].0
}

/// Configuration of one weather run. Everything here is part of the
/// checkpoint fingerprint: resuming under a different configuration is
/// refused (the rebuilt structure would not match the saved state).
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherConfig {
    /// Scheme every injected flow uses (all eight of §4 are valid).
    pub protocol: Protocol,
    /// Mean offered *payload* utilization of the bottleneck, in (0, 1.5].
    pub utilization: f64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Stats window width (the paper-style steady-state reporting grain).
    pub window: SimDuration,
    /// Samples before this mark are trimmed from the aggregate sketch.
    pub warmup: SimDuration,
    /// Checkpoint every this many windows.
    pub checkpoint_every: u64,
    /// Diurnal swing of the arrival rate, in `[0, 1)` (0 = flat Poisson).
    pub amplitude: f64,
    /// Length of one diurnal cycle.
    pub period: SimDuration,
    /// Dumbbell host pairs arrivals round-robin across.
    pub host_pairs: usize,
    /// Root seed (engine and arrival streams fork from it).
    pub seed: u64,
}

snap_struct!(WeatherConfig {
    protocol,
    utilization,
    duration,
    window,
    warmup,
    checkpoint_every,
    amplitude,
    period,
    host_pairs,
    seed,
});

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            protocol: Protocol::Halfback,
            utilization: 0.4,
            duration: SimDuration::from_secs(24 * 3600),
            window: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(120),
            checkpoint_every: 10,
            amplitude: 0.3,
            period: SimDuration::from_secs(24 * 3600),
            host_pairs: 8,
            seed: 4801,
        }
    }
}

impl WeatherConfig {
    /// Number of stats windows the run spans (the last may be partial).
    pub fn total_windows(&self) -> u64 {
        let d = self.duration.as_nanos();
        let w = self.window.as_nanos();
        d.div_ceil(w)
    }

    /// Validate that `self` matches the configuration a checkpoint was
    /// taken under. Resuming under a drifted configuration would overlay
    /// saved dynamic state onto a different structure, so it is refused.
    fn check(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let saved: WeatherConfig = r.get()?;
        if saved != *self {
            return Err(SnapError::Unsupported(format!(
                "checkpoint was taken with {saved:?}, this run has {self:?} (config drift?)"
            )));
        }
        Ok(())
    }
}

/// Accumulators for the window currently being filled. Reset at every
/// window close (after its CSV row is written), so at checkpoint instants
/// — which are always window boundaries — this is freshly empty; it is
/// serialized anyway so the codec stays valid if that invariant shifts.
struct CurWindow {
    fct: LogHistogram,
    started: u64,
    completed: u64,
    aborted: u64,
    retx: u64,
    reaped: u64,
}

impl CurWindow {
    fn new() -> Self {
        CurWindow {
            fct: LogHistogram::new(),
            started: 0,
            completed: 0,
            aborted: 0,
            retx: 0,
            reaped: 0,
        }
    }
}

snap_struct!(CurWindow {
    fct,
    started,
    completed,
    aborted,
    retx,
    reaped
});

/// The driver's own dynamic state — everything the loop mutates that is
/// not inside the engine, the hosts, or the path cache.
struct WeatherState {
    arrivals: DiurnalPoisson,
    size_rng: SimRng,
    next_flow: u64,
    started: u64,
    completed: u64,
    aborted: u64,
    retx_total: u64,
    reaped_total: u64,
    window_idx: u64,
    checkpoints: u64,
    /// Length of `windows.csv` at the last checkpoint (resume truncates to
    /// this before appending).
    csv_bytes: u64,
    fct: WindowedSketch,
    cur: CurWindow,
}

snap_struct!(WeatherState {
    arrivals,
    size_rng,
    next_flow,
    started,
    completed,
    aborted,
    retx_total,
    reaped_total,
    window_idx,
    checkpoints,
    csv_bytes,
    fct,
    cur,
});

impl WeatherState {
    fn fresh(cfg: &WeatherConfig) -> Self {
        let root = SimRng::new(cfg.seed).fork("weather");
        let spec = DumbbellSpec::emulab(1);
        let mean =
            interarrival_for_utilization(spec.bottleneck_rate, mean_flow_bytes(), cfg.utilization);
        WeatherState {
            arrivals: DiurnalPoisson::new(
                mean,
                cfg.amplitude,
                cfg.period,
                SimTime::ZERO,
                root.fork("arrivals"),
            ),
            size_rng: root.fork("sizes"),
            next_flow: 1,
            started: 0,
            completed: 0,
            aborted: 0,
            retx_total: 0,
            reaped_total: 0,
            window_idx: 0,
            checkpoints: 0,
            csv_bytes: 0,
            fct: WindowedSketch::new(cfg.window.as_nanos(), cfg.warmup.as_nanos()),
            cur: CurWindow::new(),
        }
    }

    /// Advance the engine to the next arrival, drain what completed on the
    /// way, and start the arrival's flow. Draining here, not once per
    /// window, holds the bus to the few flows that finish between two
    /// arrivals instead of a window's worth of records; they are counted in
    /// the same FIFO order either way.
    fn admit_arrival(&mut self, cfg: &WeatherConfig, rig: &mut Rig, bus: &CompletionBus) {
        rig.run_until(self.arrivals.pop());
        self.drain_bus(bus);
        let pair = (self.started as usize) % cfg.host_pairs;
        let bytes = mix_bytes(&mut self.size_rng);
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.started += 1;
        self.cur.started += 1;
        rig.start(flow, pair, bytes, cfg.protocol);
    }

    /// Move every record published since the last drain into the counters
    /// and sketches. Must run before each checkpoint so the bus (which is
    /// not serialized) is empty at save time.
    fn drain_bus(&mut self, bus: &CompletionBus) {
        let mut q = bus.borrow_mut();
        while let Some(rec) = q.pop_front() {
            if rec.outcome.is_completed() {
                self.completed += 1;
                self.cur.completed += 1;
                let ms = rec.fct.as_millis_f64();
                self.cur.fct.add(ms);
                self.fct.add(rec.done_at.as_nanos(), ms);
                self.retx_total += rec.counters.normal_retx;
                self.cur.retx += rec.counters.normal_retx;
            } else {
                self.aborted += 1;
                self.cur.aborted += 1;
            }
        }
    }
}

/// Final report of a weather run.
#[derive(Debug, Clone)]
pub struct WeatherOutcome {
    /// Flows injected.
    pub started: u64,
    /// Flows that delivered every byte.
    pub completed: u64,
    /// Flows that gave up (max retransmits / SYN timeout).
    pub aborted: u64,
    /// Flows still live at the end of the final grace period.
    pub censored: u64,
    /// Receiver endpoints reaped over the run.
    pub reaped: u64,
    /// Windows emitted to `windows.csv`.
    pub windows: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Injection rate over the simulated span.
    pub flows_per_hour: f64,
    /// Aggregate post-warm-up FCT stats (ms): mean, p50, p99.
    pub fct_ms: (f64, f64, f64),
    /// Footprint of the windowed sketch.
    pub sketch_mem_bytes: usize,
    /// True when the run stopped at `stop_after_checkpoints` instead of
    /// finishing (output files are in a resumable, not final, state).
    pub stopped_early: bool,
}

/// How a weather run starts and when it stops — the knobs the kill/resume
/// battery drives.
#[derive(Debug, Clone, Default)]
pub struct WeatherRunOptions {
    /// Resume from `weather.ckpt` in the output directory instead of
    /// starting fresh (refused if the checkpoint's configuration drifted).
    pub resume: bool,
    /// Exit right after writing the Nth checkpoint of *this invocation* —
    /// a deterministic stand-in for `kill -9` in the restore battery.
    pub stop_after_checkpoints: Option<u64>,
}

/// The service dumbbell as a case: `host_pairs` Emulab pairs and nothing
/// scheduled — the driver (or a checkpoint restore) supplies all dynamics.
fn service_case(cfg: &WeatherConfig) -> CaseSpec {
    let topology = Topology::Dumbbell(DumbbellSpec::emulab(cfg.host_pairs));
    CaseSpec::new(cfg.seed, topology, Vec::new(), FINAL_GRACE)
}

/// Have every sender publish its completions to one new bus instead of
/// keeping them, so no host holds anything per finished flow.
fn attach_bus(rig: &mut Rig) -> CompletionBus {
    let bus = completion_bus();
    for (h, _) in rig.pairs().to_vec() {
        rig.sim.with_node_mut::<Host, _>(h, |host, _| {
            host.set_retain_records(false);
            host.set_bus(bus.clone());
        });
    }
    bus
}

/// Fail the run with `oracle <kind>: <detail>` if the rig breaks a
/// conservation or transport invariant right now.
fn audit(rig: &Rig) {
    let mut report = CaseReport::default();
    rig.audit(&mut report);
    report.judged();
}

/// Serialize the complete run state as a sealed file (length-prefixed,
/// checksummed) and replace `path` with it by rename. The file is streamed
/// through the writer's fixed buffer: the checkpoint never exists whole in
/// memory.
fn write_checkpoint(
    path: &Path,
    cfg: &WeatherConfig,
    st: &WeatherState,
    rig: &mut Rig,
) -> std::io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    let mut w =
        SnapWriter::sealed_file(std::fs::File::create(&tmp)?, WEATHER_MAGIC, WEATHER_VERSION);
    w.put(cfg);
    w.magic(SEC_DRIVER);
    w.put(st);
    rig.save(&mut w);
    w.finish()?;
    std::fs::rename(&tmp, path)
}

/// Rebuild the rig from `cfg` and overlay the dynamic state from the
/// checkpoint at `path`. A [`SnapError`] travels inside the `io::Error`.
fn read_checkpoint(path: &Path, cfg: &WeatherConfig) -> std::io::Result<(WeatherState, Rig)> {
    decode_checkpoint(&std::fs::read(path)?, cfg).map_err(std::io::Error::other)
}

/// The file is verified whole (magic, version, length, checksum) before any
/// of it is decoded, so a damaged checkpoint is refused, never resumed.
fn decode_checkpoint(data: &[u8], cfg: &WeatherConfig) -> Result<(WeatherState, Rig), SnapError> {
    let mut r = SnapReader::open(data, WEATHER_MAGIC, WEATHER_VERSION)?;
    cfg.check(&mut r)?;
    r.expect_magic(SEC_DRIVER)?;
    let st = r.get()?;
    let case = service_case(cfg);
    let rig = Rig::restore(&case, &Selection::full(&case), &mut r, |_| cfg.protocol)?;
    Ok((st, rig))
}

/// One window's CSV row. Kept in one place so the emit path and the
/// resume-truncation contract stay in sync.
fn csv_row(st: &CurWindow, idx: u64, t_end: SimTime, active: usize, live_recv: usize) -> String {
    let mean = st.fct.mean().unwrap_or(0.0);
    let p50 = st.fct.quantile(0.5).unwrap_or(0.0);
    let p99 = st.fct.quantile(0.99).unwrap_or(0.0);
    let retx_mean = if st.completed > 0 {
        st.retx as f64 / st.completed as f64
    } else {
        0.0
    };
    format!(
        "{},{:.1},{},{},{},{:.3},{:.3},{:.3},{:.4},{},{},{}\n",
        idx,
        t_end.as_secs_f64(),
        st.started,
        st.completed,
        st.aborted,
        mean,
        p50,
        p99,
        retx_mean,
        active,
        live_recv,
        st.reaped,
    )
}

/// Header of `windows.csv` (schema `halfback-weather-v1`).
pub const WINDOWS_CSV_HEADER: &str = "window,t_end_s,started,completed,aborted,\
fct_ms_mean,fct_ms_p50,fct_ms_p99,retx_mean,active_flows,live_receivers,reaped\n";

/// Run the open-loop weather service mode, writing `windows.csv`,
/// `weather.ckpt`, and (on completion) `weather.json` under `out_dir`.
///
/// Determinism contract: for a fixed configuration the byte content of
/// `windows.csv` and `weather.json` is identical whether the run executed
/// uninterrupted or was killed at any checkpoint and resumed — the
/// restore battery in CI enforces exactly that.
pub fn run_weather(
    cfg: &WeatherConfig,
    out_dir: &Path,
    opts: &WeatherRunOptions,
) -> std::io::Result<WeatherOutcome> {
    assert!(cfg.host_pairs > 0, "weather needs at least one host pair");
    assert!(
        cfg.checkpoint_every > 0,
        "checkpoint cadence must be positive"
    );
    std::fs::create_dir_all(out_dir)?;
    let ckpt_path = out_dir.join("weather.ckpt");
    let csv_path = out_dir.join("windows.csv");

    let (mut st, mut rig);
    let mut csv: std::fs::File;
    if opts.resume {
        (st, rig) = read_checkpoint(&ckpt_path, cfg)?;
        // Rows written after the checkpoint was taken (the "crash window")
        // are discarded and will be regenerated identically.
        csv = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&csv_path)?;
        // `set_len` on a shorter file would pad it with NULs and carry on.
        let have = csv.metadata()?.len();
        if have < st.csv_bytes {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "windows.csv is {have} bytes but the checkpoint was taken at byte {}: \
                     rows the checkpoint relies on are gone, refusing to resume",
                    st.csv_bytes
                ),
            ));
        }
        csv.set_len(st.csv_bytes)?;
        csv.seek(SeekFrom::End(0))?;
    } else {
        st = WeatherState::fresh(cfg);
        let case = service_case(cfg);
        rig = Rig::new(&case, &Selection::full(&case), false);
        csv = std::fs::File::create(&csv_path)?;
        csv.write_all(WINDOWS_CSV_HEADER.as_bytes())?;
        st.csv_bytes = WINDOWS_CSV_HEADER.len() as u64;
    }
    let bus = attach_bus(&mut rig);

    let end = SimTime::ZERO + cfg.duration;
    let total_windows = cfg.total_windows();
    let mut checkpoints_this_run = 0u64;

    while st.window_idx < total_windows {
        let wend = std::cmp::min(
            SimTime::ZERO + SimDuration::from_nanos(cfg.window.as_nanos() * (st.window_idx + 1)),
            end,
        );
        // Inject every arrival in this window, advancing the engine to each
        // arrival instant first. No schedule is materialized: the process
        // holds exactly one pending arrival at a time.
        while st.arrivals.peek() <= wend {
            st.admit_arrival(cfg, &mut rig, &bus);
        }
        rig.run_until(wend);
        st.drain_bus(&bus);
        audit(&rig);

        // Reap receivers whose flows are long past any possible retransmit.
        if wend.as_nanos() > REAP_GRACE.as_nanos() {
            let before =
                SimTime::ZERO + SimDuration::from_nanos(wend.as_nanos() - REAP_GRACE.as_nanos());
            for (_, r) in rig.pairs().to_vec() {
                let host = rig.sim.node_as_mut::<Host>(r).unwrap();
                let n = host.reap_receivers(before) as u64;
                st.cur.reaped += n;
                st.reaped_total += n;
            }
        }

        let host = |h| rig.sim.node_as::<Host>(h).unwrap();
        let (mut active, mut live_recv) = (0, 0);
        for &(s, r) in rig.pairs() {
            active += host(s).active_senders();
            live_recv += host(r).receivers().count();
        }
        let row = csv_row(&st.cur, st.window_idx, wend, active, live_recv);
        csv.write_all(row.as_bytes())?;
        st.csv_bytes += row.len() as u64;
        st.cur = CurWindow::new();
        st.window_idx += 1;

        if st.window_idx % cfg.checkpoint_every == 0 && st.window_idx < total_windows {
            csv.flush()?;
            st.checkpoints += 1;
            write_checkpoint(&ckpt_path, cfg, &st, &mut rig)?;
            checkpoints_this_run += 1;
            if opts.stop_after_checkpoints == Some(checkpoints_this_run) {
                return Ok(WeatherOutcome {
                    started: st.started,
                    completed: st.completed,
                    aborted: st.aborted,
                    censored: 0,
                    reaped: st.reaped_total,
                    windows: st.window_idx,
                    checkpoints: st.checkpoints,
                    flows_per_hour: 0.0,
                    fct_ms: (0.0, 0.0, 0.0),
                    sketch_mem_bytes: st.fct.memory_bytes(),
                    stopped_early: true,
                });
            }
        }
    }

    // Drain stragglers, then account them (they land in post-duration
    // sketch windows, which the aggregate includes).
    rig.run_until(end + FINAL_GRACE);
    st.drain_bus(&bus);
    audit(&rig);
    csv.flush()?;

    let censored = st.started - st.completed - st.aborted;
    let agg = st.fct.aggregate();
    let hours = cfg.duration.as_secs_f64() / 3600.0;
    let outcome = WeatherOutcome {
        started: st.started,
        completed: st.completed,
        aborted: st.aborted,
        censored,
        reaped: st.reaped_total,
        windows: st.window_idx,
        checkpoints: st.checkpoints,
        flows_per_hour: st.started as f64 / hours,
        fct_ms: (
            agg.mean().unwrap_or(0.0),
            agg.quantile(0.5).unwrap_or(0.0),
            agg.quantile(0.99).unwrap_or(0.0),
        ),
        sketch_mem_bytes: st.fct.memory_bytes(),
        stopped_early: false,
    };
    std::fs::write(out_dir.join("weather.json"), summary_json(cfg, &outcome))?;
    Ok(outcome)
}

/// Render the run summary (schema `halfback-weather-v1`). Every field is a
/// pure function of the virtual run except the `"machine"` object, which
/// sits on its own line so determinism checkers can strip it with
/// `grep -v '"machine"'`.
pub fn summary_json(cfg: &WeatherConfig, out: &WeatherOutcome) -> String {
    let mut w = Writer::new();
    w.obj(|w| {
        w.key("schema").str("halfback-weather-v1");
        w.key("scheme").str(cfg.protocol.name());
        w.key("utilization").num(cfg.utilization);
        w.key("amplitude").num(cfg.amplitude);
        w.key("sim_hours")
            .fixed(cfg.duration.as_secs_f64() / 3600.0, 4);
        w.key("windows").u64(out.windows);
        w.key("checkpoints").u64(out.checkpoints);
        w.key("flows_started").u64(out.started);
        w.key("flows_completed").u64(out.completed);
        w.key("flows_aborted").u64(out.aborted);
        w.key("flows_censored").u64(out.censored);
        w.key("receivers_reaped").u64(out.reaped);
        w.key("flows_per_hour").fixed(out.flows_per_hour, 1);
        w.key("fct_ms_mean").fixed(out.fct_ms.0, 3);
        w.key("fct_ms_p50").fixed(out.fct_ms.1, 3);
        w.key("fct_ms_p99").fixed(out.fct_ms.2, 3);
        w.key("sketch_mem_bytes").u64(out.sketch_mem_bytes as u64);
        w.key("machine").obj_line(|w| {
            w.key("peak_rss_mb")
                .u64(peak_rss_mb().unwrap_or(0.0) as u64);
        });
    });
    w.finish()
}

/// Peak resident set size of this process so far, in MiB (the kernel's
/// `VmHWM` high-water mark, which memory freed before the call still
/// counts in; Linux only, `None` elsewhere).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_cfg() -> WeatherConfig {
        WeatherConfig {
            protocol: Protocol::Halfback,
            utilization: 0.3,
            duration: SimDuration::from_secs(60),
            window: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(10),
            checkpoint_every: 2,
            amplitude: 0.3,
            period: SimDuration::from_secs(120),
            host_pairs: 2,
            seed: 7,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("halfback-weather-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn peak_rss_counts_memory_already_freed() {
        const MIB: usize = 1 << 20;
        // `vec![1; n]` writes every byte, so every page is resident once.
        let buf = std::hint::black_box(vec![1u8; 64 * MIB]);
        drop(buf);
        let peak = peak_rss_mb().expect("Linux reports VmHWM");
        assert!(
            peak >= 64.0,
            "a freed 64 MiB buffer must stay in the peak: {peak:.1} MiB"
        );
    }

    #[test]
    fn weather_injects_and_completes_flows() {
        let dir = tmp_dir("basic");
        let out = run_weather(&tiny_cfg(), &dir, &WeatherRunOptions::default()).unwrap();
        assert!(
            out.started > 50,
            "expected a stream of arrivals, got {}",
            out.started
        );
        assert!(
            out.completed as f64 >= out.started as f64 * 0.8,
            "most flows complete at 30% load: {} of {}",
            out.completed,
            out.started
        );
        assert_eq!(out.windows, 6);
        assert!(out.checkpoints >= 1);
        let csv = std::fs::read_to_string(dir.join("windows.csv")).unwrap();
        assert_eq!(csv.lines().count(), 7, "header + 6 windows");
        assert!(csv.starts_with("window,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_reencodes_to_the_same_bytes_for_every_scheme() {
        // Decode a mid-run checkpoint and write it straight back: every
        // context-bound restore (engine, hosts, senders, each scheme's
        // strategy state, the shared path cache) must be a fixed point, and
        // the driver's own types pass the generic round-trip.
        use netsim::snap::assert_roundtrip;
        for protocol in Protocol::EVALUATED {
            let cfg = WeatherConfig {
                protocol,
                checkpoint_every: 1,
                ..tiny_cfg()
            };
            let dir = tmp_dir(&format!("reencode-{}", protocol.name()));
            let kill = WeatherRunOptions {
                resume: false,
                stop_after_checkpoints: Some(1),
            };
            run_weather(&cfg, &dir, &kill).unwrap();
            let saved = dir.join("weather.ckpt");
            let (st, mut rig) = read_checkpoint(&saved, &cfg).unwrap();
            let in_flight: usize = rig
                .pairs()
                .iter()
                .map(|&(s, _)| rig.sim.node_as::<Host>(s).unwrap().active_senders())
                .sum();
            assert!(in_flight > 0, "{protocol:?}: nothing in flight at the kill");
            assert_roundtrip(&cfg);
            assert_roundtrip(&st);
            let again = dir.join("again.ckpt");
            write_checkpoint(&again, &cfg, &st, &mut rig).unwrap();
            assert!(
                std::fs::read(&saved).unwrap() == std::fs::read(&again).unwrap(),
                "{protocol:?}: decode -> encode changed the checkpoint"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn the_bus_is_empty_after_every_arrival() {
        // The driver's loop, arrival by arrival, over two simulated minutes:
        // nothing that completed before an arrival may still wait on the
        // bus once that arrival is admitted.
        let cfg = WeatherConfig {
            duration: SimDuration::from_secs(120),
            ..tiny_cfg()
        };
        let mut st = WeatherState::fresh(&cfg);
        let case = service_case(&cfg);
        let mut rig = Rig::new(&case, &Selection::full(&case), false);
        let bus = attach_bus(&mut rig);
        let end = SimTime::ZERO + cfg.duration;
        while st.arrivals.peek() <= end {
            st.admit_arrival(&cfg, &mut rig, &bus);
            let waiting = bus.borrow().len();
            assert_eq!(waiting, 0, "arrival {}: {waiting} records", st.started);
        }
        assert!(
            st.completed > st.started / 2,
            "{} of {} flows drained",
            st.completed,
            st.started
        );
    }

    #[test]
    fn a_stray_packet_mid_run_fails_the_run_with_oracle_transport() {
        // A run killed at its first checkpoint, whose first receiver host
        // then reports a packet for a flow it does not know: the resumed
        // run's next window close must fail on it.
        let dir = tmp_dir("stray");
        let cfg = tiny_cfg();
        let kill = WeatherRunOptions {
            resume: false,
            stop_after_checkpoints: Some(1),
        };
        run_weather(&cfg, &dir, &kill).unwrap();
        let ckpt = dir.join("weather.ckpt");
        let (st, mut rig) = read_checkpoint(&ckpt, &cfg).unwrap();
        let receiver = rig.pairs()[0].1;
        rig.sim.node_as_mut::<Host>(receiver).unwrap().stray_packets += 1;
        write_checkpoint(&ckpt, &cfg, &st, &mut rig).unwrap();
        let resume = WeatherRunOptions {
            resume: true,
            stop_after_checkpoints: None,
        };
        let failed = std::panic::catch_unwind(|| run_weather(&cfg, &dir, &resume));
        let message = *failed.unwrap_err().downcast::<String>().unwrap();
        let want = format!("oracle transport: host {}: 1 stray packet(s)", receiver.0);
        assert_eq!(message, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mix_mean_matches_declared_weights() {
        let m = mean_flow_bytes();
        assert!(
            (1_800.0..2_100.0).contains(&m),
            "weather mix mean drifted to {m}"
        );
    }

    #[test]
    fn config_drift_is_refused_on_resume() {
        let dir = tmp_dir("drift");
        let cfg = tiny_cfg();
        let out = run_weather(
            &cfg,
            &dir,
            &WeatherRunOptions {
                resume: false,
                stop_after_checkpoints: Some(1),
            },
        )
        .unwrap();
        assert!(out.stopped_early);
        let mut drifted = cfg.clone();
        drifted.utilization = 0.5;
        let err = run_weather(
            &drifted,
            &dir,
            &WeatherRunOptions {
                resume: true,
                stop_after_checkpoints: None,
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("config drift"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
