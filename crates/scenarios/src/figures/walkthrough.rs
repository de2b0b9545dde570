//! Fig. 3: the 10-segment walkthrough, rendered as a packet timeline.
//!
//! Reproduces the paper's example: the sender paces ten segments over one
//! RTT; the first copy of packet 9 (segment index 8) is dropped; ROPR
//! proactively retransmits 10, 9, 8, 7, 6 clocked by ACKs 1–5 and the flow
//! completes without any loss signal ever reaching the sender.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::Protocol;
use netsim::engine::TraceEvent;
use netsim::loss::LossModel;
use netsim::topology::{build_path, PathSpec};
use netsim::{FlowId, Rate, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;
use transport::{Host, TransportSim};

/// Run the walkthrough and produce (timeline lines, final record).
pub fn run() -> (Vec<String>, transport::FlowRecord) {
    let mut spec = PathSpec::clean(Rate::from_mbps(100), SimDuration::from_millis(60));
    // Forward-link ordinals: 1 = SYN, data segment k = ordinal k+2 once the
    // first paced segment (ordinal 2) is segment 0 — segment 8 ("packet 9")
    // is ordinal 10.
    spec.loss = LossModel::DropList { ordinals: vec![10] };

    let mut sim = TransportSim::new(11);
    let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    let net = build_path(&mut sim, &spec, |_| Box::new(Host::new()));
    sim.set_tracer(Box::new(move |t, ev| {
        if let TraceEvent::WireDrop { packet, .. } = ev {
            sink.borrow_mut().push(format!(
                "{:>9.3} ms  WIRE DROP packet #{}",
                t.as_millis_f64(),
                packet.0
            ));
        }
    }));
    sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward));
    sim.with_node_mut::<Host, _>(net.receiver, |h, _| {
        h.wire(net.receiver, net.reverse);
        h.log_arrivals = true;
    });
    let strategy = Protocol::Halfback.make(&baselines::path_cache(), (net.sender, net.receiver));
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(
            core,
            FlowId(1),
            net.receiver,
            10 * transport::MSS as u64,
            strategy,
        )
    });
    sim.run_to_completion(1_000_000);

    let host = sim.node_as::<Host>(net.sender).unwrap();
    let rec = host.completed()[0].clone();
    let mut lines = events.borrow().clone();
    // The receiver-side arrival timeline — the content of the paper's
    // Fig. 3 (which packet arrived when, and whether it was a fresh copy or
    // a ROPR retransmission).
    let recv = sim.node_as::<Host>(net.receiver).unwrap();
    if let Some(log) = recv.receiver(FlowId(1)).and_then(|c| c.arrivals.as_ref()) {
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
pub fn figures(_ctx: &RunCtx) -> Vec<Figure> {
    let (lines, rec) = run();
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
