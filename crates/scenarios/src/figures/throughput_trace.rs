//! Fig. 15: throughput of an ongoing background TCP flow when a short flow
//! starts (§4.3.4), sampled in 60 ms bins at the receivers: each
//! receiver's flight recorder logs every arrival, and the bytes each one
//! newly delivered are summed per bin.
//!
//! Four panels: (a) an analytic optimal reference, (b) a Halfback short
//! flow, (c) one TCP short flow, (d) two TCP short flows of half size.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::runner::round_robin;
use crate::simcheck::{CaseSpec, Rig, Selection, Topology};
use crate::{Protocol, Scale};
use netsim::topology::DumbbellSpec;
use netsim::{FlowId, NodeId, SimDuration, SimTime};
use transport::{FlowEvent, Host};

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
    // 3 s lead-in + 4 s observed. The background TCP flow is flow 1 on
    // pair 0; short flow i is flow 2 + i on pair 1 + i.
    let horizon = scale.pick(7u64, 7u64);
    let background = (SimTime::ZERO, 2_000_000_000, Protocol::Tcp);
    let at = SimTime::ZERO + SimDuration::from_secs(SHORT_AT_S);
    let shorts_at = shorts.iter().map(|&(bytes, p)| (at, bytes, p));
    let flows = round_robin(
        std::iter::once(background).chain(shorts_at),
        1 + shorts.len(),
    );
    let topology = Topology::Dumbbell(DumbbellSpec::emulab(1 + shorts.len()));
    let observed = SimDuration::from_secs(horizon - SHORT_AT_S);
    let case = CaseSpec::new(73, topology, flows, observed);
    let mut rig = Rig::new(&case, &Selection::full(&case), false);
    let receivers: Vec<NodeId> = rig.pairs().iter().map(|&(_, h)| h).collect();
    for h in receivers {
        rig.sim
            .with_node_mut::<Host, _>(h, |host, _| host.enable_recorder());
    }
    rig.play();
    let report = rig.finish().judged();
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
    // Receiver hosts hold the arrival logs.
    for (flow, label) in
        std::iter::once((bg_flow, "Background Flow".to_string())).chain(short_flows.iter().cloned())
    {
        for &(_, h) in rig.pairs() {
            let host = rig.sim.node_as::<Host>(h).unwrap();
            let log = host.recorder().expect("receivers record");
            assert_eq!(log.evicted(), 0, "a receiver's flight recorder overflowed");
            let arrivals = log
                .events()
                .filter(|r| r.flow == flow)
                .filter_map(|r| match r.event {
                    FlowEvent::Delivered {
                        delivered_bytes, ..
                    } => Some((r.at.as_nanos(), delivered_bytes)),
                    _ => None,
                });
            let end_ns = host.receiver(flow).and_then(|v| v.complete_at);
            let pts = delivery_mbps(arrivals, end_ns.map(SimTime::as_nanos));
            if !pts.is_empty() {
                out.push((label.clone(), window(pts)));
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

/// A flow's throughput as `(bin start s, Mbit/s)` per [`BIN_NS`] bin, from
/// its arrivals as `(t_ns, bytes delivered so far)` in arrival order. A bin
/// sums the bytes each arrival newly delivered; an arrival that delivered
/// nothing new adds nothing, not even an empty bin. For a flow complete at
/// `end_ns` (the arrival of its last byte) the last bin is averaged over the
/// time it covers, so a completion mid-bin does not dilute the rate over
/// the full bin width.
fn delivery_mbps(
    arrivals: impl IntoIterator<Item = (u64, u64)>,
    end_ns: Option<u64>,
) -> Vec<(f64, f64)> {
    let mut bins: Vec<f64> = Vec::new();
    let mut delivered = 0;
    for (t_ns, now_delivered) in arrivals {
        let gained = now_delivered - delivered;
        if gained == 0 {
            continue;
        }
        delivered = now_delivered;
        let idx = (t_ns / BIN_NS) as usize;
        if idx >= bins.len() {
            bins.resize(idx + 1, 0.0);
        }
        bins[idx] += gained as f64;
    }
    let full_secs = BIN_NS as f64 / 1e9;
    let last = bins.len().saturating_sub(1);
    let last_secs = match end_ns {
        Some(end) if (end / BIN_NS) as usize == last && end % BIN_NS != 0 => {
            (end % BIN_NS) as f64 / 1e9
        }
        _ => full_secs,
    };
    bins.iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let secs = if i == last { last_secs } else { full_secs };
            (i as f64 * BIN_NS as f64 / 1e9, bytes * 8.0 / 1e6 / secs)
        })
        .collect()
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
    fn delivery_bins_sum_byte_increments() {
        // 7.5 KB at 0, 7.5 KB more at the end of the first 60 ms bin, then
        // a duplicate and 1.5 KB in the second.
        let arrivals = [
            (0, 7_500),
            (59_999_999, 15_000),
            (60_000_000, 15_000),
            (60_000_000, 16_500),
        ];
        let mbps = delivery_mbps(arrivals, None);
        // 15 KB in 60 ms = 2 Mbit/s.
        assert_eq!(mbps.len(), 2, "{mbps:?}");
        assert!((mbps[0].1 - 2.0).abs() < 1e-9, "{mbps:?}");
        assert!((mbps[1].1 - 0.2).abs() < 1e-9);
        // A duplicate arrival in a later bin opens no bin.
        let late_dup = delivery_mbps([(0, 7_500), (130_000_000, 7_500)], None);
        assert_eq!(late_dup.len(), 1, "{late_dup:?}");
    }

    #[test]
    fn completion_scales_final_partial_bin() {
        // The flow completes 15 ms into the second bin: 1.5 KB over 15 ms
        // is 0.8 Mbit/s, not the 0.2 Mbit/s a full-width average reports.
        let mbps = delivery_mbps([(0, 7_500), (60_000_000, 9_000)], Some(75_000_000));
        assert!((mbps[0].1 - 1.0).abs() < 1e-9, "{mbps:?}");
        assert!((mbps[1].1 - 0.8).abs() < 1e-9, "{mbps:?}");
        // Completing exactly on a later bin boundary leaves earlier bins
        // full width, and a completion in a bin without arrivals changes
        // nothing.
        let on_edge = delivery_mbps([(0, 7_500)], Some(60_000_000));
        assert!((on_edge[0].1 - 1.0).abs() < 1e-9, "{on_edge:?}");
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
