//! Fig. 10: effect of router buffer size (bufferbloat) on short-flow FCT
//! and on the number of normal retransmissions.
//!
//! §4.2.3: one background TCP flow plus short 100 KB flows arriving every
//! 10 s on average, 600 s runs, bottleneck buffer swept from small to
//! 600 KB.

use crate::harness::RunCtx;
use crate::metrics::FctStats;
use crate::report::Figure;
use crate::runner::round_robin;
use crate::simcheck::{run_figure, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use workload::PoissonArrivals;

/// Background long-flow size: effectively saturates the whole run.
const BACKGROUND_BYTES: u64 = 2_000_000_000;

/// Buffer sizes scanned (bytes).
pub fn buffers(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Full => vec![
            10_000, 25_000, 50_000, 75_000, 115_000, 150_000, 200_000, 300_000, 400_000, 500_000,
            600_000,
        ],
        Scale::Quick => vec![15_000, 115_000, 400_000],
    }
}

/// Mean FCT and retransmission count of short flows for one (protocol,
/// buffer) cell.
pub fn cell(protocol: Protocol, buffer: u64, scale: Scale) -> FctStats {
    let spec = DumbbellSpec::emulab_with_buffer(8, buffer);
    let horizon = scale.pick(SimDuration::from_secs(600), SimDuration::from_secs(80));
    let interval = scale.pick(SimDuration::from_secs(10), SimDuration::from_secs(4));
    let mut arrivals = PoissonArrivals::new(
        interval,
        SimTime::ZERO + SimDuration::from_secs(3),
        SimRng::new(29).fork("bufferbloat"),
    );
    // Background TCP flow from t = 0 (it reaches full rate long before the
    // first short flow).
    let background = (SimTime::ZERO, BACKGROUND_BYTES, Protocol::Tcp);
    let shorts = arrivals
        .until(SimTime::ZERO + horizon)
        .map(|t| (t, 100_000, protocol));
    let flows = round_robin(std::iter::once(background).chain(shorts), 8);
    let short_started = flows.len() - 1;
    let (topology, grace) = (Topology::Dumbbell(spec), SimDuration::from_secs(60));
    let case = CaseSpec::new(31, topology, flows, grace);
    // Short flows only; the background flow may legitimately be censored.
    let shorts: Vec<_> = run_figure(&case)
        .completed_records()
        .into_iter()
        .filter(|r| r.bytes == 100_000)
        .collect();
    let censored = short_started - shorts.len();
    FctStats::from_records(&shorts, censored)
}

/// The Fig. 10 protocol set (all eight schemes).
pub fn protocols() -> [Protocol; 8] {
    Protocol::EVALUATED
}

/// Render Fig. 10(a) (mean FCT vs buffer) and Fig. 10(b) (normal
/// retransmissions vs buffer).
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let mut fig_a = Figure::new(
        "fig10a",
        "Mean FCT of short flows vs router buffer size (1 background TCP flow)",
        "router buffer (KB)",
        "mean FCT (ms)",
    );
    let mut fig_b = Figure::new(
        "fig10b",
        "Normal retransmissions of short flows vs router buffer size",
        "router buffer (KB)",
        "mean normal retransmissions",
    );
    let bufs = buffers(scale);
    // One harness job per (protocol, buffer) cell.
    let grid: Vec<(Protocol, u64)> = protocols()
        .into_iter()
        .flat_map(|p| bufs.iter().map(move |&b| (p, b)))
        .collect();
    let stats = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, b)| format!("fig10/{}/buf{}k", p.name(), b / 1000),
        |(p, b)| cell(p, b, scale),
    );
    let mut small_buf_retx: Vec<(Protocol, f64)> = Vec::new();
    for (pi, p) in protocols().into_iter().enumerate() {
        let cells: Vec<(u64, FctStats)> = bufs
            .iter()
            .zip(&stats[pi * bufs.len()..(pi + 1) * bufs.len()])
            .map(|(&b, s)| (b, s.clone()))
            .collect();
        fig_a.push_series(
            p.name(),
            cells
                .iter()
                .map(|(b, s)| (*b as f64 / 1000.0, s.mean_ms))
                .collect(),
        );
        fig_b.push_series(
            p.name(),
            cells
                .iter()
                .map(|(b, s)| (*b as f64 / 1000.0, s.mean_normal_retx))
                .collect(),
        );
        small_buf_retx.push((
            p,
            cells
                .first()
                .map(|(_, s)| s.mean_normal_retx)
                .unwrap_or(f64::NAN),
        ));
        let spread = {
            let means: Vec<f64> = cells
                .iter()
                .map(|(_, s)| s.mean_ms)
                .filter(|m| m.is_finite())
                .collect();
            let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = means.iter().cloned().fold(0.0, f64::max);
            max - min
        };
        fig_a.note(format!(
            "{}: FCT spread across buffers {:.0} ms",
            p.name(),
            spread
        ));
    }
    let retx_of = |p: Protocol| {
        small_buf_retx
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, r)| *r)
            .unwrap_or(f64::NAN)
    };
    fig_b.note(format!(
        "small buffer: Halfback {:.1} vs JumpStart {:.1} normal retx ({:.0}%; paper: 6 vs ~57, 10.6%)",
        retx_of(Protocol::Halfback),
        retx_of(Protocol::JumpStart),
        100.0 * retx_of(Protocol::Halfback) / retx_of(Protocol::JumpStart),
    ));
    vec![fig_a, fig_b]
}
