//! Fig. 3: the 10-segment walkthrough, rendered as a packet timeline.
//!
//! Reproduces the paper's example: the sender paces ten segments over one
//! RTT; the first copy of packet 9 (segment index 8) is dropped; ROPR
//! proactively retransmits 10, 9, 8, 7, 6 clocked by ACKs 1–5 and the flow
//! completes without any loss signal ever reaching the sender.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::simcheck::{run_rig, CaseSpec, Selection, Topology};
use crate::Protocol;
use netsim::engine::TraceEvent;
use netsim::loss::LossModel;
use netsim::topology::PathSpec;
use netsim::{FlowId, Rate, SimDuration};
use transport::Host;

/// Run the walkthrough and produce (timeline lines, final record).
pub fn run() -> (Vec<String>, transport::FlowRecord) {
    let mut spec = PathSpec::clean(Rate::from_mbps(100), SimDuration::from_millis(60));
    // Forward-link ordinals: 1 = SYN, data segment k = ordinal k+2 once the
    // first paced segment (ordinal 2) is segment 0 — segment 8 ("packet 9")
    // is ordinal 10.
    spec.loss = LossModel::DropList { ordinals: vec![10] };
    let bytes = 10 * transport::MSS as u64;
    let horizon = SimDuration::from_secs(60);
    let case = CaseSpec {
        log_arrivals: true,
        ..CaseSpec::single(11, Topology::Path(spec), Protocol::Halfback, bytes, horizon)
    };
    let (rig, report) = run_rig(&case, &Selection::full(&case), true);
    let report = report.judged();

    let rec = report.records[0].clone();
    let mut lines: Vec<String> = report
        .streams
        .wire
        .iter()
        .filter_map(|&(t_ns, ev)| match ev {
            TraceEvent::WireDrop { packet, .. } => Some(format!(
                "{:>9.3} ms  WIRE DROP packet #{}",
                t_ns as f64 / 1e6,
                packet.0
            )),
            _ => None,
        })
        .collect();
    // The receiver-side arrival timeline — the content of the paper's
    // Fig. 3 (which packet arrived when, and whether it was a fresh copy or
    // a ROPR retransmission).
    let recv = rig.sim.node_as::<Host>(rig.pairs()[0].1).unwrap();
    if let Some(log) = recv.arrivals(FlowId(1)) {
        for &(t, seg, class) in log {
            lines.push(format!(
                "{:>9.3} ms  receiver got packet {:>2} ({})",
                t.as_millis_f64(),
                seg + 1, // the paper numbers packets from 1
                match class {
                    transport::SendClass::New => "first copy",
                    transport::SendClass::Proactive => "ROPR proactive copy",
                    _ => "reactive retransmission",
                }
            ));
        }
        lines.sort_by(|a, b| {
            let t = |s: &str| {
                s.trim_start()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .unwrap_or(0.0)
            };
            t(a).total_cmp(&t(b))
        });
    }
    lines.push(format!(
        "flow complete at {:.3} ms: {} data packets sent, {} proactive copies, {} normal retx, {} RTOs",
        rec.done_at.as_millis_f64(),
        rec.counters.data_packets_sent,
        rec.counters.proactive_retx,
        rec.counters.normal_retx,
        rec.counters.rto_events
    ));
    (lines, rec)
}

/// Render Fig. 3 as a textual timeline with the paper's invariants as
/// summary notes.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    // One harness job, so the run is metered like every other figure's.
    let (lines, rec) =
        crate::harness::parallel_map(ctx, vec![()], |_| "fig3".into(), |_| run()).remove(0);
    let mut fig = Figure::new(
        "fig3",
        "Halfback transmits a 10-packet flow (packet 9's first copy dropped)",
        "time (ms)",
        "event",
    );
    for line in lines {
        fig.note(line);
    }
    fig.note(format!(
        "invariant: recovered without timeout = {} (paper: ROPR recovers before loss is signalled)",
        rec.counters.rto_events == 0
    ));
    fig.note(format!(
        "invariant: ~half the flow proactively retransmitted = {} copies of 10 segments",
        rec.counters.proactive_retx
    ));
    // The FCT timeline itself, as a single-point series for CSV output.
    fig.push_series("fct_ms", vec![(0.0, rec.fct.as_millis_f64())]);
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_is_metered_like_any_figure() {
        let ctx = RunCtx::new(crate::Scale::Quick);
        figures(&ctx);
        let jobs = ctx.take_tally().jobs;
        assert_eq!(jobs.len(), 1);
        assert!(
            jobs[0].events > 0 && jobs[0].virtual_ns > 0,
            "{:?}",
            jobs[0]
        );
    }

    #[test]
    fn walkthrough_matches_paper_fig3() {
        let (lines, rec) = run();
        // Exactly one wire drop happened.
        assert_eq!(lines.iter().filter(|l| l.contains("WIRE DROP")).count(), 1);
        // No timeout; ROPR masked the loss.
        assert_eq!(rec.counters.rto_events, 0);
        // Around half the flow proactively retransmitted (5 of 10; the
        // dropped packet shifts the meeting point by at most one).
        assert!(
            (4..=6).contains(&(rec.counters.proactive_retx as i64)),
            "{}",
            rec.counters.proactive_retx
        );
    }
}
