//! Fig. 2: fraction of traffic (bytes) carried by flows up to each size,
//! for the three measured environments — rendered straight from the
//! workload crate's empirical distributions.

use crate::harness::RunCtx;
use crate::report::Figure;
use workload::flowsize::byte_fraction_below;
use workload::TraceKind;

/// Render Fig. 2.
pub fn figures(_ctx: &RunCtx) -> Vec<Figure> {
    let mut fig = Figure::new(
        "fig2",
        "CDF of fraction of traffic carried by different flow sizes",
        "flow size (bytes)",
        "fraction of traffic",
    );
    // Log-spaced size grid, 100 B .. 10 GB.
    let grid: Vec<f64> = (0..=40)
        .map(|i| 100.0 * 10f64.powf(i as f64 * 0.2))
        .collect();
    for kind in TraceKind::ALL {
        let dist = kind.distribution();
        let pts: Vec<(f64, f64)> = grid
            .iter()
            .map(|&s| (s, byte_fraction_below(&dist, s, f64::INFINITY)))
            .collect();
        fig.push_series(kind.name(), pts);
        fig.note(format!(
            "{}: {:.1}% of bytes in flows < 141 KB (paper: Internet 34.7%, data centers < 1%)",
            kind.name(),
            100.0 * byte_fraction_below(&dist, 141_000.0, f64::INFINITY)
        ));
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_series_are_monotone_cdfs() {
        let figs = figures(&RunCtx::new(crate::Scale::Quick));
        assert_eq!(figs.len(), 1);
        for s in &figs[0].series {
            assert!(
                s.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12),
                "{}",
                s.label
            );
            let last = s.points.last().unwrap().1;
            assert!(last > 0.99, "{} ends at {last}", s.label);
        }
    }
}
