//! Figs. 12 and 1: the all-short-flow utilization sweep and the
//! latency-vs-feasible-capacity tradeoff derived from it.
//!
//! §4.3.1: 100 KB flows, identical Poisson arrival schedules per
//! utilization, utilization swept 5–90 % in 5 % steps. Feasible capacity is
//! the knee before FCT/completion collapse.

use crate::harness::RunCtx;
use crate::metrics::{feasible_capacity, FctStats, SweepPoint};
use crate::report::Figure;
use crate::runner::schedule_flows;
use crate::simcheck::{run_figure, CaseReport, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{Rate, SimDuration, SimTime};
use workload::Schedule;

/// Collapse detection: mean FCT above this multiple of the low-load mean.
pub const COLLAPSE_FACTOR: f64 = 4.0;
/// Collapse detection: absolute mean-FCT floor in ms (a scheme is not
/// "collapsed" while flows still finish in ~1 RTT-scale times).
pub const COLLAPSE_FLOOR_MS: f64 = 1200.0;
/// Collapse detection: completion rate below this.
pub const MIN_COMPLETION: f64 = 0.9;

/// The utilizations scanned.
pub fn utilizations(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (1..=18).map(|i| i as f64 * 0.05).collect(),
        Scale::Quick => vec![0.05, 0.2, 0.35, 0.5, 0.6, 0.7, 0.8],
    }
}

/// One sweep cell: `protocol` at offered utilization `u`, one full
/// dumbbell simulation. The unit of parallelism for Figs. 1/12/17 and the
/// ratio/variance/sensitivity extensions.
pub fn point(protocol: Protocol, u: f64, scale: Scale, seed: u64) -> SweepPoint {
    let spec = DumbbellSpec::emulab(12);
    let rate = spec.bottleneck_rate;
    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(120), SimDuration::from_secs(50));
    // Schedule seed depends on utilization but NOT protocol: §4.3.2
    // "same schedule of flow arrivals for each network utilization".
    let srng = SimRng::new(seed).fork_indexed("sched", (u * 1000.0) as u64);
    let schedule = Schedule::fixed_size(rate, 100_000, u, horizon, srng);
    let flows = schedule_flows(&schedule, 12, |_| protocol);
    let (topology, grace) = (Topology::Dumbbell(spec), SimDuration::from_secs(30));
    let case = CaseSpec::new(seed ^ 0x5eed, topology, flows, grace);
    sweep_point(u, rate, horizon, &run_figure(&case))
}

/// A sweep point from a dumbbell run whose arrivals ended at `horizon`.
pub fn sweep_point(u: f64, rate: Rate, horizon: SimTime, out: &CaseReport) -> SweepPoint {
    // Normalize by the arrival horizon (the denominator of the
    // offered load), not the longer drain period.
    let achieved = (out.bottlenecks[0].tx_bytes as f64 * 8.0)
        / (rate.as_bps() as f64 * horizon.saturating_since(SimTime::ZERO).as_secs_f64());
    SweepPoint {
        utilization: u,
        achieved_utilization: achieved,
        stats: FctStats::from_records(&out.completed_records(), out.censored),
    }
}

/// Sweep one protocol across utilizations with per-utilization identical
/// schedules (shared across protocols via the seed discipline). Cells run
/// as parallel harness jobs.
pub fn sweep(protocol: Protocol, ctx: &RunCtx, seed: u64) -> Vec<SweepPoint> {
    sweep_many(&[protocol], ctx, seed)
        .pop()
        .map(|(_, pts)| pts)
        .unwrap_or_default()
}

/// Sweep several protocols at once: one harness job per (protocol,
/// utilization) cell, results regrouped per protocol in input order.
pub fn sweep_many(
    protocols: &[Protocol],
    ctx: &RunCtx,
    seed: u64,
) -> Vec<(Protocol, Vec<SweepPoint>)> {
    let scale = ctx.scale;
    let utils = utilizations(scale);
    let cells: Vec<(Protocol, f64)> = protocols
        .iter()
        .flat_map(|&p| utils.iter().map(move |&u| (p, u)))
        .collect();
    let points = crate::harness::parallel_map(
        ctx,
        cells,
        |&(p, u)| format!("fig12/{}/u{:.0}/s{seed}", p.name(), u * 100.0),
        |(p, u)| point(p, u, scale, seed),
    );
    protocols
        .iter()
        .zip(points.chunks(utils.len()))
        .map(|(&p, pts)| (p, pts.to_vec()))
        .collect()
}

/// Data for both figures.
pub struct FeasibleData {
    /// Per-protocol sweep results.
    pub sweeps: Vec<(Protocol, Vec<SweepPoint>)>,
}

/// Run the full sweep for the Fig. 12 protocol set.
pub fn run(ctx: &RunCtx) -> FeasibleData {
    FeasibleData {
        sweeps: sweep_many(&Protocol::EVALUATED, ctx, 42),
    }
}

/// Render Fig. 12 (FCT vs utilization) and Fig. 1 (tradeoff scatter).
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    render(&run(ctx))
}

/// Render from precomputed data (shared with the ablation module).
pub fn render(data: &FeasibleData) -> Vec<Figure> {
    let mut fig12 = Figure::new(
        "fig12",
        "FCT vs utilization, all-short-flow workload (feasible capacity)",
        "utilization (%)",
        "mean FCT (ms)",
    );
    let mut fig1 = Figure::new(
        "fig1",
        "Tradeoff: common-case latency vs feasible capacity",
        "feasible capacity (% utilization)",
        "low-load FCT (ms)",
    );
    for (p, points) in &data.sweeps {
        fig12.push_series(
            p.name(),
            points
                .iter()
                .map(|pt| (pt.utilization * 100.0, pt.stats.mean_ms))
                .collect(),
        );
        let fc = feasible_capacity(points, COLLAPSE_FACTOR, COLLAPSE_FLOOR_MS, MIN_COMPLETION);
        let low_load = points
            .first()
            .map(|pt| pt.stats.mean_ms)
            .unwrap_or(f64::NAN);
        fig1.push_series(p.name(), vec![(fc * 100.0, low_load)]);
        let overhead_at_half = points
            .iter()
            .find(|pt| (pt.utilization - 0.5).abs() < 0.026)
            .map(|pt| pt.achieved_utilization / pt.utilization.max(1e-9))
            .unwrap_or(f64::NAN);
        fig12.note(format!(
            "{}: feasible capacity {:.0}%, low-load mean FCT {:.0} ms, carried/offered at 50% = {:.2}x",
            p.name(),
            fc * 100.0,
            low_load,
            overhead_at_half
        ));
    }
    // Headline comparisons the paper quotes.
    let fc_of = |p: Protocol| {
        data.sweeps
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, pts)| {
                feasible_capacity(pts, COLLAPSE_FACTOR, COLLAPSE_FLOOR_MS, MIN_COMPLETION)
            })
            .unwrap_or(0.0)
    };
    let hb = fc_of(Protocol::Halfback);
    let js = fc_of(Protocol::JumpStart);
    if js > 0.0 {
        fig1.note(format!(
            "Halfback feasible capacity = {:.2}x JumpStart's (paper: 1.4x)",
            hb / js
        ));
    }
    vec![fig12, fig1]
}
