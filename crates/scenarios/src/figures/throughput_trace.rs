//! Fig. 15: throughput of an ongoing background TCP flow when a short flow
//! starts (§4.3.4), sampled in 60 ms bins at the receivers.
//!
//! Four panels: (a) an analytic optimal reference, (b) a Halfback short
//! flow, (c) one TCP short flow, (d) two TCP short flows of half size.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::runner::round_robin;
use crate::simcheck::{run_rig, CaseSpec, Selection, Topology};
use crate::{Protocol, Scale};
use netsim::topology::DumbbellSpec;
use netsim::{FlowId, SimDuration, SimTime};
use transport::Host;

/// Sampling bin (paper: every 60 ms).
pub const BIN_NS: u64 = 60_000_000;
/// When the short flow starts (background is at full rate well before).
const SHORT_AT_S: u64 = 3;

/// One panel's series: (label, points) with time in ms relative to the
/// short-flow start.
pub type Panel = Vec<(String, Vec<(f64, f64)>)>;

/// Simulate one panel: a long-running background TCP flow plus `shorts`
/// (bytes, protocol) all starting at t = 3 s on distinct host pairs.
pub fn panel(shorts: &[(u64, Protocol)], scale: Scale) -> Panel {
    panel_with_notes(shorts, scale).0
}

/// [`panel`] plus per-short-flow transmission notes (packets sent, normal
/// and proactive retransmissions) from the metrics the senders accumulate.
pub fn panel_with_notes(shorts: &[(u64, Protocol)], scale: Scale) -> (Panel, Vec<String>) {
    let horizon = scale.pick(7u64, 7u64); // 3 s lead-in + 4 s observed
                                          // The background TCP flow is flow 1 on pair 0; short flow i is flow
                                          // 2 + i on pair 1 + i.
    let background = (SimTime::ZERO, 2_000_000_000, Protocol::Tcp);
    let at = SimTime::ZERO + SimDuration::from_secs(SHORT_AT_S);
    let shorts_at = shorts.iter().map(|&(bytes, p)| (at, bytes, p));
    let flows = round_robin(
        std::iter::once(background).chain(shorts_at),
        1 + shorts.len(),
    );
    let topology = Topology::Dumbbell(DumbbellSpec::emulab(1 + shorts.len()));
    let observed = SimDuration::from_secs(horizon - SHORT_AT_S);
    let case = CaseSpec {
        delivery_bin_ns: Some(BIN_NS),
        ..CaseSpec::new(73, topology, flows, observed)
    };
    let (rig, report) = run_rig(&case, &Selection::full(&case), false);
    let report = report.judged();
    let bg_flow = FlowId(1);
    let short_flows: Vec<(FlowId, String)> = shorts
        .iter()
        .enumerate()
        .map(|(i, &(_, p))| {
            let label = if shorts.len() > 1 {
                format!("{} short flow{}", p.name(), i + 1)
            } else {
                format!("{} short flow", p.name())
            };
            (FlowId(2 + i as u64), label)
        })
        .collect();

    let mut out: Panel = Vec::new();
    let offset_ms = (SHORT_AT_S * 1000) as f64;
    let window = |pts: Vec<(f64, f64)>| -> Vec<(f64, f64)> {
        pts.into_iter()
            .map(|(t_s, mbps)| (t_s * 1000.0 - offset_ms, mbps))
            .filter(|&(t, _)| (-600.0..=3000.0).contains(&t))
            .collect()
    };
    // Receiver hosts hold the delivery timelines.
    for (flow, label) in
        std::iter::once((bg_flow, "Background Flow".to_string())).chain(short_flows.iter().cloned())
    {
        for &(_, h) in rig.pairs() {
            let host = rig.sim.node_as::<Host>(h).unwrap();
            if let Some(tb) = host.timelines.as_ref().and_then(|tl| tl.get(flow)) {
                out.push((label.clone(), window(tb.as_mbps())));
                break;
            }
        }
    }
    // Transmission accounting for the short flows (from their sender-side
    // FlowRecords — completed short flows only; the background is censored
    // by design).
    let mut notes = Vec::new();
    for r in &report.records {
        if let Some((_, label)) = short_flows.iter().find(|(f, _)| *f == r.flow) {
            notes.push(format!(
                "{label}: {} data packets, {} normal retx, {} proactive retx, {} RTO fires",
                r.counters.data_packets_sent,
                r.counters.normal_retx,
                r.counters.proactive_retx,
                r.counters.rto_events
            ));
        }
    }
    (out, notes)
}

/// The analytic optimal panel (a): the short flow is served at line rate
/// immediately; the background keeps the residual capacity and resumes
/// instantly.
pub fn optimal_panel() -> Panel {
    let cap = 15.0; // Mbps
    let short_bits = 100_000.0 * 8.0 / 1e6; // Mbit
    let short_ms = short_bits / cap * 1000.0; // ~53 ms
    let bin_ms = BIN_NS as f64 / 1e6;
    let mut bg = Vec::new();
    let mut short = Vec::new();
    let mut t = -600.0;
    while t <= 3000.0 {
        let in_burst = t >= 0.0 && t < bin_ms;
        let short_mbps = if in_burst {
            short_bits / (bin_ms / 1000.0)
        } else {
            0.0
        };
        bg.push((t, (cap - short_mbps).max(0.0)));
        short.push((t, short_mbps));
        t += bin_ms;
        let _ = short_ms;
    }
    vec![
        ("Background Flow".to_string(), bg),
        ("Optimal short flow".to_string(), short),
    ]
}

/// Render Fig. 15(a–d).
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    // Panels (b)–(d) each simulate an independent dumbbell: one harness
    // job apiece. Panel (a) is analytic and stays inline.
    type PanelSpec = (&'static str, &'static str, Vec<(u64, Protocol)>);
    let sim_specs: Vec<PanelSpec> = vec![
        (
            "fig15b",
            "Halfback short flow",
            vec![(100_000, Protocol::Halfback)],
        ),
        (
            "fig15c",
            "One TCP short flow",
            vec![(100_000, Protocol::Tcp)],
        ),
        (
            "fig15d",
            "Two TCP short flows with half flow size",
            vec![(50_000, Protocol::Tcp), (50_000, Protocol::Tcp)],
        ),
    ];
    let sim_panels = crate::harness::parallel_map(
        ctx,
        sim_specs,
        |&(id, _, _)| format!("fig15/{id}"),
        |(id, title, shorts)| {
            let (panel, notes) = panel_with_notes(&shorts, scale);
            (id, title, panel, notes)
        },
    );
    let mut panels: Vec<(&str, &str, Panel, Vec<String>)> =
        vec![("fig15a", "Optimal situation", optimal_panel(), Vec::new())];
    panels.extend(sim_panels);
    panels
        .into_iter()
        .map(|(id, title, panel, notes)| {
            let mut fig = Figure::new(
                id,
                &format!("Throughput of flows: {title}"),
                "time since short-flow start (ms)",
                "throughput (Mbit/s)",
            );
            for (label, pts) in &panel {
                // Recovery metric: first time after the dip when the
                // background is back above 90% of the bottleneck.
                if label.starts_with("Background") {
                    let recover = pts
                        .iter()
                        .filter(|&&(t, _)| t > 100.0)
                        .find(|&&(_, m)| m >= 13.5)
                        .map(|&(t, _)| t);
                    match recover {
                        Some(t) => fig.note(format!(
                            "background back to >90% capacity {t:.0} ms after short-flow start"
                        )),
                        None => fig.note(
                            "background did not regain 90% capacity in the 3 s window".to_string(),
                        ),
                    }
                }
                fig.push_series(label.clone(), pts.clone());
            }
            for n in notes {
                fig.note(n);
            }
            fig
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_panel_conserves_capacity() {
        let panel = optimal_panel();
        assert_eq!(panel.len(), 2);
        let bg = &panel[0].1;
        let short = &panel[1].1;
        // Background + short never exceed the 15 Mbps bottleneck, and the
        // short flow moves exactly 100 KB.
        let mut short_bits = 0.0;
        for ((_, b), (_, s)) in bg.iter().zip(short.iter()) {
            assert!(b + s <= 15.0 + 1e-9);
            short_bits += s * (BIN_NS as f64 / 1e9);
        }
        let short_bytes = short_bits * 1e6 / 8.0;
        assert!(
            (short_bytes - 100_000.0).abs() < 1.0,
            "short moved {short_bytes} bytes"
        );
    }

    #[test]
    fn simulated_panel_has_background_at_capacity_before_short() {
        let p = panel(&[(100_000, crate::Protocol::Tcp)], crate::Scale::Quick);
        let bg = &p
            .iter()
            .find(|(l, _)| l.starts_with("Background"))
            .unwrap()
            .1;
        let before: Vec<f64> = bg
            .iter()
            .filter(|&&(t, _)| t < -100.0)
            .map(|&(_, m)| m)
            .collect();
        assert!(!before.is_empty());
        let mean = before.iter().sum::<f64>() / before.len() as f64;
        assert!(
            mean > 13.0,
            "background not at capacity before the short flow: {mean}"
        );
    }
}
