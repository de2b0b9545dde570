//! Figs. 5–8: the global-Internet (PlanetLab-substitute) evaluation.
//!
//! §4.2.1: ~2.6 K node pairs, 100 KB flows, FCT includes connection setup.
//! Our substitute runs each scheme over the same synthetic path population
//! (see `workload::paths::planetlab_paths`), one flow per path per scheme.

use crate::harness::RunCtx;
use crate::metrics::{fct_ecdf, retx_ecdf, rtt_count_ecdf};
use crate::report::Figure;
use crate::simcheck::single_path_flow;
use crate::Protocol;
use netsim::SimDuration;
use transport::sender::FlowRecord;
use workload::planetlab_paths;

/// Flow size used throughout §4.2 (100 KB).
pub const FLOW_BYTES: u64 = 100_000;

/// Per-path results across schemes.
pub struct PlanetlabData {
    /// `per_path[i]` holds, for path `i`, each scheme's record (None =
    /// censored: the flow never finished).
    pub per_path: Vec<Vec<(Protocol, Option<FlowRecord>)>>,
}

impl PlanetlabData {
    /// All completed records of one scheme.
    pub fn records(&self, p: Protocol) -> Vec<FlowRecord> {
        self.per_path
            .iter()
            .flat_map(|row| {
                row.iter()
                    .filter(|(q, _)| *q == p)
                    .filter_map(|(_, r)| r.clone())
            })
            .collect()
    }

    /// Indices of paths where loss visibly struck *some* scheme (the
    /// paper's "25% of cases where packet loss does happen"). Halfback can
    /// mask loss without a normal retransmission, so the union over schemes
    /// defines the lossy subset.
    pub fn lossy_paths(&self) -> Vec<usize> {
        self.per_path
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                row.iter().any(|(_, r)| match r {
                    Some(rec) => rec.counters.normal_retx > 0 || rec.counters.rto_events > 0,
                    None => true,
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Completed records of one scheme on a path subset.
    pub fn records_on(&self, p: Protocol, paths: &[usize]) -> Vec<FlowRecord> {
        paths
            .iter()
            .flat_map(|&i| {
                self.per_path[i]
                    .iter()
                    .filter(|(q, _)| *q == p)
                    .filter_map(|(_, r)| r.clone())
            })
            .collect()
    }
}

/// Paths per harness job: each job simulates every scheme over one chunk
/// of the path population (fine enough to saturate the pool, coarse
/// enough to keep progress output readable at 2.6 K paths).
const PATHS_PER_JOB: usize = 64;

/// Run every PlanetLab scheme over the path population, fanned out as one
/// harness job per path chunk.
pub fn run(ctx: &RunCtx) -> PlanetlabData {
    let n = ctx.scale.pick(2600, 150);
    let paths = planetlab_paths(n, 17);
    let chunks: Vec<(usize, &[netsim::topology::PathSpec])> = paths
        .chunks(PATHS_PER_JOB)
        .enumerate()
        .map(|(c, chunk)| (c * PATHS_PER_JOB, chunk))
        .collect();
    let rows = crate::harness::parallel_map(
        ctx,
        chunks,
        |&(start, chunk)| format!("fig5-8/paths[{start}..{}]", start + chunk.len()),
        |(start, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, spec)| {
                    let i = start + j;
                    Protocol::PLANETLAB
                        .into_iter()
                        .map(|p| {
                            // Same seed per path across schemes: identical
                            // wire-loss draws for the packets each scheme
                            // exposes.
                            let seed = 1000 + i as u64;
                            let grace = SimDuration::from_secs(180);
                            (p, single_path_flow(spec, p, FLOW_BYTES, seed, grace))
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        },
    );
    PlanetlabData {
        per_path: rows.into_iter().flatten().collect(),
    }
}

/// Render Figs. 5, 6, 7 and 8 from one run.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let data = run(ctx);
    let mut figs = Vec::new();

    // CCDF companions (the paper's (b) panels) are emitted alongside each
    // CDF figure.
    let mut fig5b = Figure::new(
        "fig5b",
        "Number of normal TCP retransmissions (complementary CDF)",
        "normal retransmissions",
        "percent of trials",
    );
    let mut fig6b = Figure::new(
        "fig6b",
        "Flow completion time of short flows (complementary CDF)",
        "latency (ms)",
        "percent of trials",
    );
    let mut fig7b = Figure::new(
        "fig7b",
        "Number of RTTs used per short flow (complementary CDF)",
        "number of RTTs",
        "percent of trials",
    );

    // Fig. 5: number of normal retransmissions, CDF.
    let mut fig5 = Figure::new(
        "fig5",
        "Number of normal TCP retransmissions of short flows (CDF)",
        "normal retransmissions",
        "percent of trials",
    );
    for p in Protocol::PLANETLAB {
        let recs = data.records(p);
        let e = retx_ecdf(&recs);
        fig5b.push_series(p.name(), e.ccdf_series());
        fig5.push_series(p.name(), e.cdf_series());
        let zero = recs.iter().filter(|r| r.counters.normal_retx == 0).count();
        fig5.note(format!(
            "{}: {:.0}% of trials with zero normal retransmissions",
            p.name(),
            100.0 * zero as f64 / recs.len().max(1) as f64
        ));
    }
    // Per-scheme retransmit ratios over the whole population (normal and
    // proactive copies per data packet sent), plus RTO totals for Fig. 6.
    let totals: Vec<(Protocol, [u64; 4])> = Protocol::PLANETLAB
        .into_iter()
        .map(|p| {
            let mut t = [0u64; 4];
            for r in data.records(p) {
                let c = &r.counters;
                t[0] += c.data_packets_sent;
                t[1] += c.normal_retx;
                t[2] += c.proactive_retx;
                t[3] += c.rto_events;
            }
            (p, t)
        })
        .collect();
    for &(p, [data_pkts, normal, proactive, _]) in &totals {
        fig5.note(format!(
            "{}: retx ratio {:.4} normal, {:.4} proactive (of {} data packets)",
            p.name(),
            normal as f64 / data_pkts.max(1) as f64,
            proactive as f64 / data_pkts.max(1) as f64,
            data_pkts
        ));
    }
    figs.push(fig5);

    // Fig. 6: FCT CDF plus the paper's headline means.
    let mut fig6 = Figure::new(
        "fig6",
        "Flow completion time of short flows (CDF)",
        "latency (ms)",
        "percent of trials",
    );
    let mut means = Vec::new();
    for p in Protocol::PLANETLAB {
        let recs = data.records(p);
        let e = fct_ecdf(&recs);
        let mean = e.mean().unwrap_or(f64::NAN);
        let p99 = e.percentile(99.0).unwrap_or(f64::NAN);
        fig6b.push_series(p.name(), e.ccdf_series());
        fig6.push_series(p.name(), e.cdf_series());
        fig6.note(format!(
            "{}: mean FCT {:.0} ms, 99th pct {:.0} ms",
            p.name(),
            mean,
            p99
        ));
        means.push((p, mean));
    }
    let mean_of = |p: Protocol| {
        means
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, m)| *m)
            .unwrap_or(f64::NAN)
    };
    let hb = mean_of(Protocol::Halfback);
    fig6.note(format!(
        "Halfback vs JumpStart: {:.1}% lower mean FCT (paper: 13%)",
        100.0 * (1.0 - hb / mean_of(Protocol::JumpStart))
    ));
    fig6.note(format!(
        "Halfback vs TCP: {:.1}% lower (paper: 52%); vs TCP-10: {:.1}% (29%); vs Reactive: {:.1}% (51%); vs Proactive: {:.1}% (61%)",
        100.0 * (1.0 - hb / mean_of(Protocol::Tcp)),
        100.0 * (1.0 - hb / mean_of(Protocol::Tcp10)),
        100.0 * (1.0 - hb / mean_of(Protocol::Reactive)),
        100.0 * (1.0 - hb / mean_of(Protocol::Proactive)),
    ));
    for &(p, [.., rto_fires]) in &totals {
        fig6.note(format!(
            "{}: {rto_fires} RTO fires across the population",
            p.name()
        ));
    }
    figs.push(fig6);

    // Fig. 7: FCT in RTTs.
    let mut fig7 = Figure::new(
        "fig7",
        "Number of RTTs used per short flow (CDF)",
        "number of RTTs",
        "percent of trials",
    );
    for p in Protocol::PLANETLAB {
        let recs = data.records(p);
        let e = rtt_count_ecdf(&recs);
        let med = e.median().unwrap_or(f64::NAN);
        fig7b.push_series(p.name(), e.ccdf_series());
        fig7.push_series(p.name(), e.cdf_series());
        fig7.note(format!("{}: median {:.1} RTTs", p.name(), med));
    }
    figs.push(fig7);

    // Fig. 8: FCT CDF on the lossy subset.
    let lossy = data.lossy_paths();
    let mut fig8 = Figure::new(
        "fig8",
        "FCT under cases where packet loss happened (CDF)",
        "latency (ms)",
        "percent of trials",
    );
    fig8.note(format!(
        "lossy subset: {} of {} paths ({:.0}%; paper: ~25%)",
        lossy.len(),
        data.per_path.len(),
        100.0 * lossy.len() as f64 / data.per_path.len().max(1) as f64
    ));
    let mut med = Vec::new();
    for p in Protocol::PLANETLAB {
        let recs = data.records_on(p, &lossy);
        let e = fct_ecdf(&recs);
        med.push((p, e.median().unwrap_or(f64::NAN)));
        fig8.push_series(p.name(), e.cdf_series());
    }
    let med_of = |p: Protocol| {
        med.iter()
            .find(|(q, _)| *q == p)
            .map(|(_, m)| *m)
            .unwrap_or(f64::NAN)
    };
    fig8.note(format!(
        "Halfback median under loss: {:.0} ms vs JumpStart {:.0} ms ({:.0}% lower; paper: 21%)",
        med_of(Protocol::Halfback),
        med_of(Protocol::JumpStart),
        100.0 * (1.0 - med_of(Protocol::Halfback) / med_of(Protocol::JumpStart)),
    ));
    figs.push(fig8);
    figs.push(fig5b);
    figs.push(fig6b);
    figs.push(fig7b);
    figs
}
