//! Fig. 13: short aggressive flows vs long TCP flows (§4.3.2).
//!
//! 10 % of offered bytes come from 100 KB short flows (the scheme under
//! test), 90 % from 100 MB long TCP flows; FCTs are normalized by the
//! all-TCP baseline under the *same* arrival schedule.

use crate::harness::RunCtx;
use crate::metrics::FctStats;
use crate::report::Figure;
use crate::runner::round_robin;
use crate::simcheck::{run_figure, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use workload::interarrival_for_utilization;
use workload::PoissonArrivals;

/// Long-flow size (paper: 100 MB). Quick scale shrinks it so runs finish.
fn long_bytes(scale: Scale) -> u64 {
    scale.pick(100_000_000, 20_000_000)
}

/// Utilizations scanned (paper: 30–85 %).
pub fn utilizations(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (6..=17).map(|i| i as f64 * 0.05).collect(),
        Scale::Quick => vec![0.3, 0.5, 0.7],
    }
}

/// Build the shared schedule: 10 % of bytes in shorts, 90 % in longs.
fn schedule(utilization: f64, scale: Scale, horizon: SimTime) -> Vec<(SimTime, u64)> {
    let spec = DumbbellSpec::emulab(1);
    let lb = long_bytes(scale);
    let short_mean =
        interarrival_for_utilization(spec.bottleneck_rate, 100_000.0, utilization * 0.10);
    let long_mean =
        interarrival_for_utilization(spec.bottleneck_rate, lb as f64, utilization * 0.90);
    let seed = SimRng::new(53).fork_indexed("ls", (utilization * 1000.0) as u64);
    let mut shorts = PoissonArrivals::new(short_mean, SimTime::ZERO, seed.fork("short"));
    let mut longs = PoissonArrivals::new(long_mean, SimTime::ZERO, seed.fork("long"));
    let mut flows: Vec<(SimTime, u64)> = shorts
        .until(horizon)
        .map(|t| (t, 100_000))
        .chain(longs.until(horizon).map(|t| (t, lb)))
        .collect();
    // At least one long flow so the normalization denominator exists.
    if !flows.iter().any(|&(_, b)| b == lb) {
        flows.push((SimTime::ZERO + SimDuration::from_secs(1), lb));
    }
    flows.sort_by_key(|&(t, _)| t);
    flows
}

/// (short stats, long stats) for one (protocol, utilization) cell.
pub fn cell(protocol: Protocol, utilization: f64, scale: Scale) -> (FctStats, FctStats) {
    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(400), SimDuration::from_secs(120));
    let lb = long_bytes(scale);
    let flows = round_robin(
        schedule(utilization, scale, horizon)
            .into_iter()
            .map(|(at, bytes)| {
                (
                    at,
                    bytes,
                    if bytes == lb { Protocol::Tcp } else { protocol },
                )
            }),
        10,
    );
    let short_started = flows.iter().filter(|f| f.bytes == 100_000).count();
    let long_started = flows.len() - short_started;
    let grace = scale.pick(SimDuration::from_secs(400), SimDuration::from_secs(200));
    let topology = Topology::Dumbbell(DumbbellSpec::emulab(10));
    let records = run_figure(&CaseSpec::new(57, topology, flows, grace)).completed_records();
    let (shorts, longs): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.bytes == 100_000);
    (
        FctStats::from_records(
            &shorts,
            crate::metrics::censored_count(short_started, shorts.len(), "long_short/short"),
        ),
        FctStats::from_records(
            &longs,
            crate::metrics::censored_count(long_started, longs.len(), "long_short/long"),
        ),
    )
}

/// The protocol set shown in Fig. 13.
pub fn protocols() -> [Protocol; 6] {
    [
        Protocol::Proactive,
        Protocol::Reactive,
        Protocol::Tcp10,
        Protocol::TcpCache,
        Protocol::JumpStart,
        Protocol::Halfback,
    ]
}

/// Render Fig. 13(a) (short flows) and 13(b) (long flows), normalized by
/// the all-TCP baseline.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let utils = utilizations(scale);
    // One harness job per (protocol, utilization) cell; the all-TCP
    // baseline (shorts also run TCP) rides in the same job list.
    let mut all: Vec<Protocol> = vec![Protocol::Tcp];
    all.extend(protocols());
    let grid: Vec<(Protocol, f64)> = all
        .iter()
        .flat_map(|&p| utils.iter().map(move |&u| (p, u)))
        .collect();
    let cells = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, u)| format!("fig13/{}/u{:.0}", p.name(), u * 100.0),
        |(p, u)| cell(p, u, scale),
    );
    let baseline: Vec<(f64, FctStats, FctStats)> = utils
        .iter()
        .zip(&cells[..utils.len()])
        .map(|(&u, (s, l))| (u, s.clone(), l.clone()))
        .collect();
    let mut fig_a = Figure::new(
        "fig13a",
        "Short-flow FCT normalized by all-TCP baseline (10% short / 90% long)",
        "utilization (%)",
        "normalized FCT",
    );
    let mut fig_b = Figure::new(
        "fig13b",
        "Long-flow FCT normalized by all-TCP baseline (10% short / 90% long)",
        "utilization (%)",
        "normalized FCT",
    );
    for (pi, p) in protocols().into_iter().enumerate() {
        let row = &cells[(pi + 1) * utils.len()..(pi + 2) * utils.len()];
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        for (i, &u) in utils.iter().enumerate() {
            let (s, l) = &row[i];
            let (bs, bl) = (&baseline[i].1, &baseline[i].2);
            if s.mean_ms.is_finite() && bs.mean_ms.is_finite() {
                pa.push((u * 100.0, s.mean_ms / bs.mean_ms));
            }
            if l.mean_ms.is_finite()
                && bl.mean_ms.is_finite()
                && l.completed > 0
                && bl.completed > 0
            {
                pb.push((u * 100.0, l.mean_ms / bl.mean_ms));
            }
        }
        let mean_a = pa.iter().map(|&(_, y)| y).sum::<f64>() / pa.len().max(1) as f64;
        let mean_b = pb.iter().map(|&(_, y)| y).sum::<f64>() / pb.len().max(1) as f64;
        fig_a.push_series(p.name(), pa);
        fig_b.push_series(p.name(), pb);
        fig_a.note(format!(
            "{}: short-flow FCT {:.0}% of TCP's on average",
            p.name(),
            mean_a * 100.0
        ));
        fig_b.note(format!(
            "{}: long-flow slowdown {:+.0}% on average",
            p.name(),
            (mean_b - 1.0) * 100.0
        ));
    }
    fig_a.note("paper: Halfback ~44% of TCP, JumpStart ~49%, TCP-10 ~71%".to_string());
    fig_b.note("paper: Halfback slows longs ~3%, JumpStart ~10%, Proactive up to 25%".to_string());
    vec![fig_a, fig_b]
}
