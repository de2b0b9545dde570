//! One module per figure/table of the paper.
//!
//! Every module exposes `figures(ctx) -> Vec<Figure>`; the registry in
//! [`experiment`] maps experiment ids ("fig12", "table1", …) to them.

pub mod ablation;
pub mod aqm;
pub mod bufferbloat;
pub mod chaos;
pub mod feasible;
pub mod flowsize_sweep;
pub mod friendliness;
pub mod home;
pub mod long_short;
pub mod multihop;
pub mod planetlab;
pub mod planetlab_sharded;
pub mod ratio;
pub mod sensitivity;
pub mod table1;
pub mod throughput_trace;
pub mod traffic_cdf;
pub mod variance;
pub mod walkthrough;
pub mod web_response;

use crate::harness::RunCtx;
use crate::report::Figure;

/// The figure function behind an experiment id; `None` for an unknown id.
///
/// "fig1" is derived from the same sweep as "fig12" and returned together
/// with it; "fig5"–"fig8" all come from the PlanetLab run and are returned
/// together when any of them is requested.
pub fn experiment(id: &str) -> Option<fn(&RunCtx) -> Vec<Figure>> {
    Some(match id {
        "fig1" | "fig12" => feasible::figures,
        "fig2" => traffic_cdf::figures,
        "fig3" => walkthrough::figures,
        "fig5" | "fig6" | "fig7" | "fig8" => planetlab::figures,
        "fig9" => home::figures,
        "fig10" => bufferbloat::figures,
        "fig11" => flowsize_sweep::figures,
        "fig13" => long_short::figures,
        "fig14" => friendliness::figures,
        "fig15" => throughput_trace::figures,
        "fig16" => web_response::figures,
        "fig17" => ablation::figures,
        "aqm" => aqm::figures,
        "chaos" => chaos::figures,
        "planetlab100k" => planetlab_sharded::figures,
        "ratio" => ratio::figures,
        "multihop" => multihop::figures,
        "sensitivity" => sensitivity::figures,
        "variance" => variance::figures,
        "table1" => table1::figures,
        _ => return None,
    })
}

/// Run one experiment by id; `None` for an unknown id.
pub fn run_experiment(id: &str, ctx: &RunCtx) -> Option<Vec<Figure>> {
    experiment(id).map(|figures| figures(ctx))
}

/// Ids accepted by [`run_experiment`], deduplicated (fig1/fig12 and
/// fig5–fig8 share runs).
pub fn distinct_experiment_ids() -> Vec<&'static str> {
    vec![
        "fig2",
        "fig3",
        "fig6",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "table1",
        "aqm",
        "chaos",
        "planetlab100k",
        "ratio",
        "multihop",
        "sensitivity",
        "variance",
    ]
}
