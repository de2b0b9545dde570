//! Seed-variance extension: the reproduction is deterministic per seed, so
//! this experiment quantifies how much the headline quantities move across
//! independent seeds — the error bars the single-seed figures omit.

use crate::figures::feasible;
use crate::harness::RunCtx;
use crate::metrics::feasible_capacity;
use crate::report::Figure;
use crate::{Protocol, Scale};

/// Seeds sampled.
pub fn seeds(scale: Scale) -> Vec<u64> {
    scale.pick(vec![42, 1, 7, 1234, 99991], vec![42, 7])
}

/// Per-seed (feasible capacity, low-load FCT ms) for one scheme; one
/// harness job per (seed, utilization) cell.
pub fn per_seed(protocol: Protocol, ctx: &RunCtx) -> Vec<(f64, f64)> {
    let scale = ctx.scale;
    let seeds = seeds(scale);
    let utils = feasible::utilizations(scale);
    let cells: Vec<(u64, f64)> = seeds
        .iter()
        .flat_map(|&s| utils.iter().map(move |&u| (s, u)))
        .collect();
    let points = crate::harness::parallel_map(
        ctx,
        cells,
        |&(s, u)| format!("variance/{}/seed{s}/u{:.0}", protocol.name(), u * 100.0),
        |(s, u)| feasible::point(protocol, u, scale, s),
    );
    points
        .chunks(utils.len())
        .map(|pts| {
            let fc = feasible_capacity(
                pts,
                feasible::COLLAPSE_FACTOR,
                feasible::COLLAPSE_FLOOR_MS,
                feasible::MIN_COMPLETION,
            );
            let low = pts.first().map(|p| p.stats.mean_ms).unwrap_or(f64::NAN);
            (fc, low)
        })
        .collect()
}

/// Render the variance figure.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let mut fig = Figure::new(
        "variance",
        "Extension: seed-to-seed variance of feasible capacity and low-load FCT",
        "seed index",
        "feasible capacity (%)",
    );
    for p in [Protocol::Halfback, Protocol::JumpStart, Protocol::Tcp] {
        let rows = per_seed(p, ctx);
        fig.push_series(
            p.name(),
            rows.iter()
                .enumerate()
                .map(|(i, &(fc, _))| (i as f64, fc * 100.0))
                .collect(),
        );
        let fcs: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let lows: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        fig.note(format!(
            "{}: feasible capacity {:.0}-{:.0}%, low-load FCT {:.0}-{:.0} ms across {} seeds",
            p.name(),
            min(&fcs) * 100.0,
            max(&fcs) * 100.0,
            min(&lows),
            max(&lows),
            rows.len()
        ));
    }
    fig.note("the Halfback-vs-JumpStart ordering must hold for every seed".to_string());
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_holds_across_seeds() {
        // At quick scale with two seeds: Halfback's feasible capacity never
        // falls below JumpStart's, for any seed.
        let ctx = RunCtx::new(Scale::Quick);
        let hb = per_seed(Protocol::Halfback, &ctx);
        let js = per_seed(Protocol::JumpStart, &ctx);
        for (i, (h, j)) in hb.iter().zip(js.iter()).enumerate() {
            assert!(
                h.0 >= j.0,
                "seed index {i}: Halfback {:.2} < JumpStart {:.2}",
                h.0,
                j.0
            );
        }
    }
}
