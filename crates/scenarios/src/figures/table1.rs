//! Table 1: the design-space taxonomy (startup phase × lost-packet
//! recovery), rendered from the protocol registry's declared properties.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::Protocol;

/// Render Table 1.
pub fn figures(_ctx: &RunCtx) -> Vec<Figure> {
    let mut fig = Figure::new(
        "table1",
        "Startup phase and lost-packet recovery design space",
        "-",
        "-",
    );
    fig.note(format!(
        "{:<20} {:<30} {:<16} {:<16} {:<12}",
        "scheme", "startup", "extra bandwidth", "retx direction", "retx rate"
    ));
    for p in Protocol::EVALUATED
        .into_iter()
        .chain([Protocol::HalfbackForward, Protocol::HalfbackBurst])
    {
        let (startup, bw, dir, rate) = p.table1_row();
        fig.note(format!(
            "{:<20} {:<30} {:<16} {:<16} {:<12}",
            p.name(),
            startup,
            bw,
            dir,
            rate
        ));
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_all_evaluated_schemes() {
        let figs = figures(&RunCtx::new(crate::Scale::Quick));
        let text = figs[0].summary.join("\n");
        for p in Protocol::EVALUATED {
            assert!(text.contains(p.name()), "missing {p}");
        }
        assert!(text.contains("reverse order"));
        assert!(text.contains("line rate"));
    }
}
