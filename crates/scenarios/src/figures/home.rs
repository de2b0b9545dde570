//! Fig. 9: Halfback vs TCP on four home access networks (§4.2.2).
//!
//! Clients behind four residential profiles fetch 100 KB flows from 170
//! servers; we compare the per-network FCT CDFs and median reductions.

use crate::harness::RunCtx;
use crate::metrics::fct_ecdf;
use crate::report::Figure;
use crate::simcheck::single_path_flow;
use crate::Protocol;
use netsim::SimDuration;
use transport::sender::FlowRecord;
use workload::HomeNetwork;

/// Per-network results: each scheme's completed flow records.
pub type HomeResults = Vec<(HomeNetwork, Vec<(Protocol, Vec<FlowRecord>)>)>;

/// Run both schemes over every server path of every home network: one
/// harness job per (network, protocol) cell.
pub fn run(ctx: &RunCtx) -> HomeResults {
    let n_servers = ctx.scale.pick(170, 40);
    let cells: Vec<(HomeNetwork, Protocol)> = HomeNetwork::ALL
        .into_iter()
        .flat_map(|hn| [Protocol::Halfback, Protocol::Tcp].map(|p| (hn, p)))
        .collect();
    let recs = crate::harness::parallel_map(
        ctx,
        cells,
        |&(hn, p)| format!("fig9/{}/{}", hn.name(), p.name()),
        |(hn, p)| {
            let paths = hn.server_paths(n_servers, 23);
            paths
                .iter()
                .enumerate()
                .filter_map(|(i, spec)| {
                    let grace = SimDuration::from_secs(180);
                    single_path_flow(spec, p, 100_000, 7_000 + i as u64, grace)
                })
                .collect::<Vec<FlowRecord>>()
        },
    );
    HomeNetwork::ALL
        .into_iter()
        .zip(recs.chunks(2))
        .map(|(hn, pair)| {
            (
                hn,
                [Protocol::Halfback, Protocol::Tcp]
                    .into_iter()
                    .zip(pair.iter().cloned())
                    .collect(),
            )
        })
        .collect()
}

/// Render Fig. 9.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let data = run(ctx);
    let mut fig = Figure::new(
        "fig9",
        "FCT on home networks with different providers (CDF)",
        "latency (ms)",
        "fraction of trials (%)",
    );
    for (hn, results) in &data {
        let mut medians = Vec::new();
        for (p, recs) in results {
            let e = fct_ecdf(recs);
            medians.push((*p, e.median().unwrap_or(f64::NAN)));
            fig.push_series(format!("{} - {}", p.name(), hn.name()), e.cdf_series());
        }
        let get = |p: Protocol| {
            medians
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, m)| *m)
                .unwrap()
        };
        let hb = get(Protocol::Halfback);
        let tcp = get(Protocol::Tcp);
        fig.note(format!(
            "{}: Halfback median {:.0} ms vs TCP {:.0} ms ({:.0}% less)",
            hn.name(),
            hb,
            tcp,
            100.0 * (1.0 - hb / tcp)
        ));
    }
    fig.note("paper: medians 50% (Comcast wired), 68% (ConnectivityU wireless), 50% (ConnectivityU wired), 18% (AT&T wireless) less than TCP".to_string());
    vec![fig]
}
