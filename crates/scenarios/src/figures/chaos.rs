//! Robustness sweep (`repro chaos`): every scheme against a battery of
//! deterministic fault scenarios on a single path — link flapping,
//! blackhole windows, a permanent blackout, heavy reordering, duplication,
//! corruption, and mid-run bandwidth/delay steps.
//!
//! Each cell runs `n_flows` sequential 150 KB transfers and asserts the
//! substrate invariants from the fault-injection contract *inside the
//! cell*: every flow ends Completed or Aborted, packet conservation holds
//! on both links, and the simulation drains to zero live timers. A cell
//! that violates an invariant (or trips the per-job watchdog) panics; the
//! harness isolates it and the figure reports it as a FAILED row, so one
//! pathological (scenario, scheme) pair cannot hide the rest of the table.
//! The totals line `invariant violations: 0` is what CI greps for.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::runner::run_until_checked;
use crate::Protocol;
use baselines::path_cache;
use netsim::engine::TraceEvent;
use netsim::loss::LossModel;
use netsim::stats::Ecdf;
use netsim::topology::{build_path, PathSpec};
use netsim::{FaultSpec, FlowId, Rate, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use transport::{FlowRecord, Host, TransportSim};

/// Payload of every chaos flow: a "short flow" big enough to straddle
/// fault windows (150 KB ≈ 100 segments, ~120 ms clean FCT at 10 Mbps).
const FLOW_BYTES: u64 = 150_000;
/// Gap between sequential flow arrivals.
const SPACING_MS: u64 = 2_000;
/// Drain time after the last arrival: must cover the slowest give-up
/// (~63 s of exponential RTO backoff before `MaxRetransmits`).
const GRACE: SimDuration = SimDuration::from_secs(240);
/// Watchdog: virtual-time cap per cell (far above the ~290 s a healthy
/// cell needs; a livelocked cell fails alone instead of hanging `repro`).
const CELL_VIRTUAL_CAP_NS: u64 = 1_800 * 1_000_000_000;
/// Watchdog: event-count cap per cell.
const CELL_EVENT_CAP: u64 = 50_000_000;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One fault scenario: a name for the table plus the path perturbation.
pub struct Scenario {
    /// Row label.
    pub name: &'static str,
    /// Random loss on the data direction (kitchen-sink only).
    pub loss: f64,
    /// Fault schedule installed on the data-direction link.
    pub faults: FaultSpec,
}

/// The scenario battery. `span_ms` is the arrival span of the flows, so
/// periodic faults cover every arrival at whatever scale runs.
pub fn scenarios(span_ms: u64) -> Vec<Scenario> {
    // 100 ms outages every 700 ms: flows hit the flap at varying phases.
    let mut flap = FaultSpec::none();
    let mut at = 300;
    while at < span_ms + 2_000 {
        flap = flap.down_window(t(at), t(at + 100));
        at += 700;
    }
    // A sparser flap for the kitchen sink (combined with everything else).
    let mut sink = FaultSpec::none();
    let mut at = 900;
    while at < span_ms + 2_000 {
        sink = sink.down_window(t(at), t(at + 100));
        at += 2_900;
    }
    vec![
        Scenario {
            name: "baseline",
            loss: 0.0,
            faults: FaultSpec::none(),
        },
        Scenario {
            name: "flap",
            loss: 0.0,
            faults: flap,
        },
        Scenario {
            name: "blackhole",
            loss: 0.0,
            faults: FaultSpec::none().blackhole_window(t(3_000), t(6_000)),
        },
        // The link goes down at 2 s and never comes back: the first flow
        // completes, every later flow must give up (SYN timeout).
        Scenario {
            name: "blackout",
            loss: 0.0,
            faults: FaultSpec::none().down_window(t(2_000), t(10_000_000)),
        },
        Scenario {
            name: "reorder",
            loss: 0.0,
            faults: FaultSpec::none().with_reorder(0.5, SimDuration::from_millis(30)),
        },
        Scenario {
            name: "duplicate",
            loss: 0.0,
            faults: FaultSpec::none().with_duplication(0.3),
        },
        Scenario {
            name: "corrupt",
            loss: 0.0,
            faults: FaultSpec::none().with_corruption(0.1),
        },
        // 10 -> 1 Mbps between 3 s and 9 s.
        Scenario {
            name: "rate-step",
            loss: 0.0,
            faults: FaultSpec::none()
                .rate_step(t(3_000), Rate::from_mbps(1))
                .rate_step(t(9_000), Rate::from_mbps(10)),
        },
        // One-way delay 20 -> 100 ms between 3 s and 9 s.
        Scenario {
            name: "delay-step",
            loss: 0.0,
            faults: FaultSpec::none()
                .delay_step(t(3_000), SimDuration::from_millis(100))
                .delay_step(t(9_000), SimDuration::from_millis(20)),
        },
        Scenario {
            name: "kitchen-sink",
            loss: 0.02,
            faults: sink
                .with_reorder(0.3, SimDuration::from_millis(20))
                .with_duplication(0.1)
                .with_corruption(0.02)
                .rate_step(t(5_000), Rate::from_mbps(2)),
        },
    ]
}

/// Outcome of one (scenario, protocol) cell.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Flows that gave up (max retransmissions / SYN timeout).
    pub aborted: usize,
    /// Mean FCT over completed flows (NaN when none completed).
    pub mean_fct_ms: f64,
    /// Transmission/link accounting, totalled in the summary.
    pub metrics: CellMetrics,
}

/// Per-cell counters, totalled over the sweep in the chaos summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellMetrics {
    /// Data packets sent across all flows (terminal states included).
    pub data_packets: u64,
    /// Normal (reactive) retransmissions.
    pub normal_retx: u64,
    /// Proactive copies.
    pub proactive_retx: u64,
    /// RTO fires.
    pub rto_fires: u64,
    /// Congestion (queue) drops, both links.
    pub queue_drops: u64,
    /// Non-queue link losses (wire loss + down windows + blackholes), both
    /// links.
    pub link_lost: u64,
}

/// Run one cell and assert the fault-injection invariants. Panics (with
/// the scenario/protocol in the message) on any violation; the caller's
/// harness isolation turns that into a FAILED table row.
pub fn run_cell(sc: &Scenario, protocol: Protocol, n_flows: usize, seed: u64) -> CellStats {
    let mut spec = PathSpec::clean(Rate::from_mbps(10), SimDuration::from_millis(40))
        .with_faults(sc.faults.clone());
    if sc.loss > 0.0 {
        spec.loss = LossModel::Bernoulli { p: sc.loss };
    }
    let mut sim = TransportSim::new(seed);
    let net = build_path(&mut sim, &spec, |_| Box::new(Host::new()));
    sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward));
    sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.wire(net.receiver, net.reverse));

    // Per-endpoint delivery / checksum-drop counts for the wire-side
    // conservation equation (the link-side terms come from `LinkStats`).
    let arrived = Rc::new(RefCell::new([[0u64; 2]; 2]));
    let a2 = arrived.clone();
    let (snd, rcv) = (net.sender, net.receiver);
    sim.set_tracer(Box::new(move |_, ev| {
        let (node, slot) = match *ev {
            TraceEvent::Deliver { node, .. } => (node, 0),
            TraceEvent::CorruptDrop { node, .. } => (node, 1),
            _ => return,
        };
        let row = usize::from(node == rcv);
        debug_assert!(node == snd || node == rcv);
        a2.borrow_mut()[row][slot] += 1;
    }));

    let cache = path_cache();
    for i in 0..n_flows {
        run_until_checked(&mut sim, t(i as u64 * SPACING_MS));
        let strategy = protocol.make(&cache, (net.sender, net.receiver));
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(
                core,
                FlowId(i as u64 + 1),
                net.receiver,
                FLOW_BYTES,
                strategy,
            )
        });
    }
    run_until_checked(&mut sim, t((n_flows as u64 - 1) * SPACING_MS) + GRACE);

    let cell = format!("{}/{}", sc.name, protocol.name());
    let records: Vec<FlowRecord> = sim
        .node_as::<Host>(net.sender)
        .unwrap()
        .completed()
        .to_vec();
    let (completed, aborted): (Vec<FlowRecord>, Vec<FlowRecord>) =
        records.into_iter().partition(|r| r.outcome.is_completed());

    // Invariant: every flow reached a terminal state (Completed/Aborted).
    assert_eq!(
        completed.len() + aborted.len(),
        n_flows,
        "{cell}: {} flows neither completed nor aborted at drain",
        n_flows - completed.len() - aborted.len()
    );
    // Invariant: with all flows terminal, the simulation drains clean —
    // no live timers, no busy links, no queued packets.
    sim.run_to_completion(10_000_000);
    crate::harness::meter_add(
        sim.now().saturating_since(SimTime::ZERO).as_nanos(),
        sim.events_processed(),
    );
    sim.assert_drained();

    // Invariant: packet conservation on both links. Offer side: every
    // offered packet was down-dropped, queue-dropped, or serialized.
    // Wire side: every serialized packet plus every duplicate copy was
    // wire-lost, blackholed, checksum-dropped, or delivered.
    let mut metrics = CellMetrics::default();
    let arrived = arrived.borrow();
    for (dir, link, [delivered, corrupt]) in [
        ("fwd", net.forward, arrived[1]),
        ("rev", net.reverse, arrived[0]),
    ] {
        let s = sim.link_stats(link);
        let q = sim.queue_stats(link);
        assert_eq!(
            s.down_dropped + q.dropped + s.tx_packets,
            s.offered,
            "{cell}/{dir}: offer-side conservation violated"
        );
        assert_eq!(
            s.tx_packets + s.duplicated,
            s.wire_lost + s.blackholed + corrupt + delivered,
            "{cell}/{dir}: wire-side conservation violated"
        );
        assert_eq!(q.enqueued, q.dequeued, "{cell}/{dir}: queue not drained");
        metrics.queue_drops += q.dropped;
        metrics.link_lost += s.lost_total();
    }
    for r in completed.iter().chain(aborted.iter()) {
        metrics.data_packets += r.counters.data_packets_sent;
        metrics.normal_retx += r.counters.normal_retx;
        metrics.proactive_retx += r.counters.proactive_retx;
        metrics.rto_fires += r.counters.rto_events;
    }

    let mean_fct_ms = if completed.is_empty() {
        f64::NAN
    } else {
        completed
            .iter()
            .map(|r| r.fct.as_nanos() as f64 / 1e6)
            .sum::<f64>()
            / completed.len() as f64
    };
    CellStats {
        completed: completed.len(),
        aborted: aborted.len(),
        mean_fct_ms,
        metrics,
    }
}

/// Render the chaos survival table.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let n_flows = scale.pick(24, 8);
    let span_ms = (n_flows as u64 - 1) * SPACING_MS;
    let scens = scenarios(span_ms);
    let protos = Protocol::EVALUATED;

    // One harness job per cell, under the watchdog: a livelocked cell
    // panics through the isolation path instead of hanging the sweep.
    let mut jobs = Vec::new();
    for (si, sc) in scens.iter().enumerate() {
        for p in protos {
            jobs.push(
                crate::harness::Job::new(format!("chaos/{}/{}", sc.name, p.name()), move || {
                    run_cell(sc, p, n_flows, 0xC4A0_5EED + si as u64)
                })
                .with_caps(CELL_VIRTUAL_CAP_NS, CELL_EVENT_CAP),
            );
        }
    }
    let results = crate::harness::run_jobs(ctx, jobs);

    let mut fig = Figure::new(
        "chaos",
        "Robustness: survival and FCT degradation under injected faults",
        "fault scenario index",
        "flows completed (%)",
    );
    for (si, sc) in scens.iter().enumerate() {
        fig.note(format!("S{si} = {}", sc.name));
    }
    // Per-protocol baseline FCT (scenario 0) for the degradation column.
    let base: Vec<f64> = (0..protos.len())
        .map(|pi| match &results[pi] {
            Ok(c) => c.mean_fct_ms,
            Err(_) => f64::NAN,
        })
        .collect();
    let mut violations = 0usize;
    let mut watchdog_trips = 0usize;
    for (si, sc) in scens.iter().enumerate() {
        for (pi, p) in protos.iter().enumerate() {
            match &results[si * protos.len() + pi] {
                Ok(c) => {
                    let fct = if c.mean_fct_ms.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{:.1} ms", c.mean_fct_ms)
                    };
                    let degr = if c.mean_fct_ms.is_nan() || base[pi].is_nan() || base[pi] <= 0.0 {
                        "n/a".to_string()
                    } else {
                        format!("{:.2}x baseline", c.mean_fct_ms / base[pi])
                    };
                    fig.note(format!(
                        "{:>12}/{:<9} {:>2}/{} completed, {:>2} aborted, mean FCT {fct} ({degr})",
                        sc.name,
                        p.name(),
                        c.completed,
                        n_flows,
                        c.aborted,
                    ));
                }
                Err(e) => {
                    violations += 1;
                    if e.message.contains("watchdog") {
                        watchdog_trips += 1;
                    }
                    fig.note(format!(
                        "{:>12}/{:<9} FAILED — {}",
                        sc.name,
                        p.name(),
                        e.message
                    ));
                }
            }
        }
    }
    for (pi, p) in protos.iter().enumerate() {
        let pts: Vec<(f64, f64)> = (0..scens.len())
            .map(|si| {
                let y = match &results[si * protos.len() + pi] {
                    Ok(c) => 100.0 * c.completed as f64 / n_flows as f64,
                    Err(_) => 0.0,
                };
                (si as f64, y)
            })
            .collect();
        fig.push_series(p.name(), pts);
    }
    fig.note(format!("invariant violations: {violations}"));
    fig.note(format!("watchdog trips: {watchdog_trips}"));
    // Totals over the cells that ran, summed in submission order (the order
    // `run_jobs` returns results), so they are identical for any --jobs N.
    let cells: Vec<&CellStats> = results.iter().flatten().collect();
    if !cells.is_empty() {
        let total = |f: fn(&CellMetrics) -> u64| cells.iter().map(|c| f(&c.metrics)).sum::<u64>();
        for (name, sum) in [
            ("data_packets", total(|m| m.data_packets)),
            ("link.lost", total(|m| m.link_lost)),
            ("link.queue_drops", total(|m| m.queue_drops)),
            ("retx.normal", total(|m| m.normal_retx)),
            ("retx.proactive", total(|m| m.proactive_retx)),
            ("rto.fires", total(|m| m.rto_fires)),
        ] {
            fig.note(format!("chaos.{name} = {sum}"));
        }
    }
    let means = Ecdf::from_samples(cells.iter().map(|c| c.mean_fct_ms).collect());
    if let (Some(mean), Some(p50), Some(p99)) =
        (means.mean(), means.median(), means.percentile(99.0))
    {
        fig.note(format!(
            "chaos.fct_ms: n={} mean={mean:.2} p50={p50:.2} p99={p99:.2}",
            means.len()
        ));
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cell_all_complete() {
        let scens = scenarios(14_000);
        let c = run_cell(&scens[0], Protocol::Halfback, 4, 7);
        assert_eq!((c.completed, c.aborted), (4, 0));
        assert!(c.mean_fct_ms > 0.0 && c.mean_fct_ms < 1_000.0);
    }

    #[test]
    fn blackout_forces_aborts_not_hangs() {
        let scens = scenarios(14_000);
        let blackout = scens.iter().find(|s| s.name == "blackout").unwrap();
        let c = run_cell(blackout, Protocol::Tcp, 4, 7);
        // The pre-blackout flow completes; everyone after gives up.
        assert_eq!(c.completed, 1, "only the first flow beats the blackout");
        assert_eq!(c.aborted, 3, "later flows must abort, not hang");
    }

    #[test]
    fn corruption_degrades_but_flows_survive() {
        let scens = scenarios(14_000);
        let corrupt = scens.iter().find(|s| s.name == "corrupt").unwrap();
        let base = run_cell(&scens[0], Protocol::Halfback, 4, 7);
        let c = run_cell(corrupt, Protocol::Halfback, 4, 7);
        assert_eq!(c.completed, 4, "10% corruption must not kill flows");
        assert!(
            c.mean_fct_ms > base.mean_fct_ms,
            "corruption should cost time: {:.1} vs {:.1} ms",
            c.mean_fct_ms,
            base.mean_fct_ms
        );
    }

    #[test]
    fn chaos_figure_reports_zero_violations() {
        let figs = figures(&RunCtx::new(crate::Scale::Quick));
        assert_eq!(figs.len(), 1);
        let f = &figs[0];
        assert_eq!(f.series.len(), Protocol::EVALUATED.len());
        assert!(
            f.summary.iter().any(|l| l == "invariant violations: 0"),
            "summary: {:#?}",
            f.summary
        );
        assert!(f.summary.iter().any(|l| l == "watchdog trips: 0"));
        // Baseline row: every scheme completes every flow.
        for s in &f.series {
            assert_eq!(s.points[0], (0.0, 100.0), "{}: baseline survival", s.label);
        }
    }
}
