//! `repro trace`: replay one (scenario, seed, flow) with the flight
//! recorder on and export the merged trace.
//!
//! Three deterministic event streams are captured — the netsim wire tracer
//! (`net`), the sender host's flight recorder (`snd`), and the receiver
//! host's (`rcv`) — and merged into one JSONL file ordered by
//! `(t_ns, stream)` with within-stream emission order preserved. Because
//! every stream is a pure function of `(scenario, seed)`, the merged bytes
//! are identical across runs and across any `--jobs N`
//! (`tests/harness_determinism.rs` asserts this). The run itself is a
//! one-hop [`simcheck`](crate::simcheck) case with recording on.
//!
//! A tcptrace-style time–sequence CSV (`series,x,y` with x in ms and y in
//! segment numbers) and the Halfback ROPR/ACK meet point round out the
//! export: the paper's "Halfback" name is the claim that on a loss-free
//! path the proactive stream stops about halfway back, i.e.
//! `cursor / batch_segs ≈ 0.5`.

use crate::figures::chaos::flapping;
use crate::protocols::Protocol;
use crate::simcheck::{run_case, CaseSpec, FaultKind, FlowSpec, HopSpec, Selection};
use netsim::engine::TraceEvent;
use netsim::{FlowId, SimDuration, SimTime};
use std::fmt::Write as _;
use transport::trace::{FlowEvent, FlowEventRecord};
use transport::wire::SendClass;

/// What to trace: a named path configuration, a scheme, a seed, and which
/// flow of a spaced sequence to start (all flows are recorded; the meet
/// point is computed for `flow`).
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Path configuration: `fig5`–`fig8` (the clean 15 Mbps / 60 ms-RTT
    /// PlanetLab-substitute bottleneck) or `chaos` (10 Mbps / 40 ms RTT
    /// with a flapping link).
    pub figure: String,
    /// Transmission scheme.
    pub protocol: Protocol,
    /// Engine seed.
    pub seed: u64,
    /// Flow to analyse. Flows `1..=flow` start 500 ms apart.
    pub flow: u64,
    /// Payload bytes per flow.
    pub bytes: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            figure: "fig6".to_string(),
            protocol: Protocol::Halfback,
            seed: 42,
            flow: 1,
            bytes: 100_000,
        }
    }
}

/// Where Halfback's descending ROPR cursor met the advancing cumulative
/// ACK, as a fraction of the paced batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeetPoint {
    /// Cursor position at the meet.
    pub cursor: u32,
    /// Cumulative ACK at the meet.
    pub cum_ack: u32,
    /// Segments in the paced batch.
    pub batch_segs: u32,
    /// `cursor / batch_segs` (the paper's ≈ 0.5 on a loss-free path).
    pub fraction: f64,
}

/// Extract the meet point of `flow` from recorded events (`None` when ROPR
/// never met the ACK stream — non-Halfback schemes, or an RTO ended ROPR).
pub fn meet_point(events: &[FlowEventRecord], flow: FlowId) -> Option<MeetPoint> {
    events.iter().find_map(|r| match r.event {
        FlowEvent::RoprMeet {
            cursor,
            cum_ack,
            batch_segs,
        } if r.flow == flow => Some(MeetPoint {
            cursor,
            cum_ack,
            batch_segs,
            fraction: cursor as f64 / batch_segs.max(1) as f64,
        }),
        _ => None,
    })
}

/// Everything `repro trace` exports.
#[derive(Debug)]
pub struct TraceOutput {
    /// Merged JSONL trace (one event per line, `meet_point` summary last).
    pub jsonl: String,
    /// Time–sequence CSV (`series,x,y`; x = ms, y = segment).
    pub timeseq_csv: String,
    /// The traced flow's meet point, if ROPR met the ACK stream.
    pub meet: Option<MeetPoint>,
    /// Total events across the three streams.
    pub events: usize,
}

/// Why a trace could not run: a bad spec (unknown figure, zero bytes, flow
/// 0). Returned instead of panicking so `repro trace` can exit nonzero with
/// a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TraceError {}

impl TraceError {
    fn new(msg: impl Into<String>) -> Self {
        TraceError(msg.into())
    }
}

/// The path a figure name maps to: one hop and the faults on it.
pub fn path_for(figure: &str) -> Result<(HopSpec, Vec<FaultKind>), TraceError> {
    match figure {
        // The §4.2 global-Internet evaluation's representative bottleneck:
        // clean 15 Mbps, 30 ms one way (60 ms RTT).
        "fig5" | "fig6" | "fig7" | "fig8" => Ok((HopSpec::clean(15, 30), Vec::new())),
        // A chaos-style flapping link: 100 ms outages every 700 ms.
        "chaos" => Ok((HopSpec::clean(10, 20), flapping(300, 700, 4_000))),
        other => Err(TraceError::new(format!(
            "unknown trace figure {other:?}: expected fig5..fig8 or chaos"
        ))),
    }
}

fn class_str(c: SendClass) -> &'static str {
    match c {
        SendClass::New => "new",
        SendClass::FastRetx => "fast_retx",
        SendClass::RtoRetx => "rto_retx",
        SendClass::ProbeRetx => "probe_retx",
        SendClass::Proactive => "proactive",
    }
}

fn wire_line(t_ns: u64, ev: &TraceEvent) -> String {
    let (name, id_key, id, packet, size) = match *ev {
        TraceEvent::TxStart { link, packet, size } => ("tx_start", "link", link.0, packet.0, size),
        TraceEvent::QueueDrop { link, packet, size } => {
            ("queue_drop", "link", link.0, packet.0, size)
        }
        TraceEvent::WireDrop { link, packet, size } => {
            ("wire_drop", "link", link.0, packet.0, size)
        }
        TraceEvent::Deliver { node, packet, size } => ("deliver", "node", node.0, packet.0, size),
        TraceEvent::FaultDrop { link, packet, size } => {
            ("fault_drop", "link", link.0, packet.0, size)
        }
        TraceEvent::Blackhole { link, packet, size } => {
            ("blackhole", "link", link.0, packet.0, size)
        }
        TraceEvent::Duplicate { link, packet, size } => {
            ("duplicate", "link", link.0, packet.0, size)
        }
        TraceEvent::CorruptDrop { node, packet, size } => {
            ("corrupt_drop", "node", node.0, packet.0, size)
        }
    };
    format!(
        "{{\"t_ns\":{t_ns},\"src\":\"net\",\"event\":\"{name}\",\"{id_key}\":{id},\"packet\":{packet},\"size\":{size}}}"
    )
}

fn flow_line(src: &str, rec: &FlowEventRecord) -> String {
    let t_ns = rec.at.as_nanos();
    let flow = rec.flow.0;
    let head = format!("{{\"t_ns\":{t_ns},\"src\":\"{src}\",\"flow\":{flow}");
    match rec.event {
        FlowEvent::SynSent { attempt } => {
            format!("{head},\"event\":\"syn_sent\",\"attempt\":{attempt}}}")
        }
        FlowEvent::Established { window } => {
            format!("{head},\"event\":\"established\",\"window\":{window}}}")
        }
        FlowEvent::SegmentSent {
            seg,
            class,
            wire_bytes,
        } => format!(
            "{head},\"event\":\"segment_sent\",\"seg\":{seg},\"class\":\"{}\",\"wire_bytes\":{wire_bytes}}}",
            class_str(class)
        ),
        FlowEvent::AckReceived {
            cum,
            newly_acked_bytes,
        } => format!(
            "{head},\"event\":\"ack_received\",\"cum\":{cum},\"newly_acked_bytes\":{newly_acked_bytes}}}"
        ),
        FlowEvent::CwndUpdate { cwnd, ssthresh } => {
            format!("{head},\"event\":\"cwnd_update\",\"cwnd\":{cwnd},\"ssthresh\":{ssthresh}}}")
        }
        FlowEvent::RtoFired { backoff_level } => {
            format!("{head},\"event\":\"rto_fired\",\"backoff_level\":{backoff_level}}}")
        }
        FlowEvent::PacingStarted { interval_ns } => {
            format!("{head},\"event\":\"pacing_started\",\"interval_ns\":{interval_ns}}}")
        }
        FlowEvent::PacingStopped => format!("{head},\"event\":\"pacing_stopped\"}}"),
        FlowEvent::RoprMeet {
            cursor,
            cum_ack,
            batch_segs,
        } => format!(
            "{head},\"event\":\"ropr_meet\",\"cursor\":{cursor},\"cum_ack\":{cum_ack},\"batch_segs\":{batch_segs}}}"
        ),
        FlowEvent::Delivered {
            seg,
            cum,
            delivered_bytes,
            ..
        } => format!(
            "{head},\"event\":\"delivered\",\"seg\":{seg},\"cum\":{cum},\"delivered_bytes\":{delivered_bytes}}}"
        ),
        FlowEvent::Completed { fct_ns } => {
            format!("{head},\"event\":\"completed\",\"fct_ns\":{fct_ns}}}")
        }
        FlowEvent::Aborted { reason } => {
            format!("{head},\"event\":\"aborted\",\"reason\":\"{reason}\"}}")
        }
    }
}

/// The three raw event streams of one recorded run.
#[derive(Debug, Default)]
pub struct Streams {
    /// Wire tracer events, `(t_ns, event)` in emission order.
    pub wire: Vec<(u64, TraceEvent)>,
    /// The sender host's flight recorder.
    pub snd: Vec<FlowEventRecord>,
    /// The receiver host's flight recorder.
    pub rcv: Vec<FlowEventRecord>,
}

impl Streams {
    /// Merge the three streams into deterministic JSONL: ordered by
    /// `(t_ns, stream rank net < snd < rcv)`, with each stream's emission
    /// order preserved inside a tie. Returns the merged text and the event
    /// count.
    pub fn merged_jsonl(&self) -> (String, usize) {
        let mut lines: Vec<(u64, u8, String)> =
            Vec::with_capacity(self.wire.len() + self.snd.len() + self.rcv.len());
        for (t_ns, ev) in &self.wire {
            lines.push((*t_ns, 0, wire_line(*t_ns, ev)));
        }
        for rec in &self.snd {
            lines.push((rec.at.as_nanos(), 1, flow_line("snd", rec)));
        }
        for rec in &self.rcv {
            lines.push((rec.at.as_nanos(), 2, flow_line("rcv", rec)));
        }
        let events = lines.len();
        lines.sort_by_key(|l| (l.0, l.1));
        let mut jsonl = String::new();
        for (_, _, l) in &lines {
            jsonl.push_str(l);
            jsonl.push('\n');
        }
        (jsonl, events)
    }
}

/// Run the spec and export the merged trace. The run is judged by the
/// simcheck oracles like any case, but the trace is exported whatever the
/// verdict: a trace is most wanted when something went wrong.
pub fn run_trace(spec: &TraceSpec) -> Result<TraceOutput, TraceError> {
    if spec.flow < 1 {
        return Err(TraceError::new("flows are numbered from 1"));
    }
    if spec.bytes == 0 {
        return Err(TraceError::new("--bytes must be positive"));
    }
    let (hop, faults) = path_for(&spec.figure)?;
    let flows = (0..spec.flow)
        .map(|i| FlowSpec {
            at_ns: i * 500_000_000,
            bytes: spec.bytes,
            protocol: spec.protocol,
            pair: 0,
        })
        .collect();
    let case = CaseSpec::one_hop(spec.seed, hop, &faults, flows, SimDuration::from_secs(240));
    let streams = run_case(&case, &Selection::full(&case), true).streams;

    let (mut jsonl, events) = streams.merged_jsonl();
    let (snd, rcv) = (&streams.snd, &streams.rcv);
    let traced = FlowId(spec.flow);
    let meet = meet_point(snd, traced);
    match meet {
        Some(m) => {
            let _ = writeln!(
                jsonl,
                "{{\"src\":\"run\",\"event\":\"meet_point\",\"flow\":{},\"cursor\":{},\"cum_ack\":{},\"batch_segs\":{},\"fraction\":{:.4}}}",
                traced.0, m.cursor, m.cum_ack, m.batch_segs, m.fraction
            );
        }
        None => {
            let _ = writeln!(
                jsonl,
                "{{\"src\":\"run\",\"event\":\"meet_point\",\"flow\":{},\"found\":false}}",
                traced.0
            );
        }
    }

    // Time–sequence view of the traced flow, tcptrace-style: transmissions
    // by class, the ACK line, and receiver-side arrivals.
    let mut csv = String::from("series,x,y\n");
    let ms = |t: SimTime| t.as_nanos() as f64 / 1e6;
    for rec in snd {
        if rec.flow != traced {
            continue;
        }
        match rec.event {
            FlowEvent::SegmentSent { seg, class, .. } => {
                let series = match class {
                    SendClass::New => "data",
                    SendClass::Proactive => "proactive",
                    _ => "retx",
                };
                let _ = writeln!(csv, "{series},{:.6},{seg}", ms(rec.at));
            }
            FlowEvent::AckReceived { cum, .. } => {
                let _ = writeln!(csv, "ack,{:.6},{cum}", ms(rec.at));
            }
            _ => {}
        }
    }
    for rec in rcv {
        if rec.flow != traced {
            continue;
        }
        if let FlowEvent::Delivered { seg, .. } = rec.event {
            let _ = writeln!(csv, "delivered,{:.6},{seg}", ms(rec.at));
        }
    }

    Ok(TraceOutput {
        jsonl,
        timeseq_csv: csv,
        meet,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, flow: u64, event: FlowEvent) -> FlowEventRecord {
        FlowEventRecord {
            at: SimTime::ZERO + SimDuration::from_nanos(t_ns),
            flow: FlowId(flow),
            event,
        }
    }

    #[test]
    fn meet_point_on_synthetic_schedule() {
        // A 100-segment batch where ROPR walked from 100 down to 52 while
        // the ACK stream climbed to 52: fraction 0.52.
        let events = vec![
            rec(1, 1, FlowEvent::Established { window: 141_000 }),
            rec(
                2,
                1,
                FlowEvent::SegmentSent {
                    seg: 99,
                    class: SendClass::Proactive,
                    wire_bytes: 1500,
                },
            ),
            rec(
                3,
                1,
                FlowEvent::RoprMeet {
                    cursor: 52,
                    cum_ack: 52,
                    batch_segs: 100,
                },
            ),
        ];
        let m = meet_point(&events, FlowId(1)).unwrap();
        assert_eq!((m.cursor, m.cum_ack, m.batch_segs), (52, 52, 100));
        assert!((m.fraction - 0.52).abs() < 1e-12);
    }

    #[test]
    fn meet_point_filters_by_flow_and_requires_a_meet() {
        let events = vec![
            rec(
                1,
                2,
                FlowEvent::RoprMeet {
                    cursor: 10,
                    cum_ack: 10,
                    batch_segs: 20,
                },
            ),
            rec(2, 1, FlowEvent::Completed { fct_ns: 1000 }),
        ];
        assert!(meet_point(&events, FlowId(1)).is_none());
        let m = meet_point(&events, FlowId(2)).unwrap();
        assert!((m.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn meet_point_guards_division_by_zero() {
        let events = vec![rec(
            1,
            1,
            FlowEvent::RoprMeet {
                cursor: 0,
                cum_ack: 0,
                batch_segs: 0,
            },
        )];
        assert_eq!(meet_point(&events, FlowId(1)).unwrap().fraction, 0.0);
    }

    /// Bad specs are reported as errors, not panics, so `repro trace`
    /// exits nonzero with a message instead of crashing the harness.
    #[test]
    fn bad_specs_return_errors() {
        assert!(path_for("fig99").is_err());
        let err = run_trace(&TraceSpec {
            figure: "nope".into(),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown trace figure"));
        assert!(run_trace(&TraceSpec {
            bytes: 0,
            ..Default::default()
        })
        .is_err());
        assert!(run_trace(&TraceSpec {
            flow: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn halfback_meets_near_half_on_clean_bottleneck() {
        let out = run_trace(&TraceSpec::default()).unwrap();
        let m = out.meet.expect("Halfback must meet on a clean path");
        assert!(
            (0.4..=0.6).contains(&m.fraction),
            "meet fraction {:.3} outside the paper's ≈ 50% band",
            m.fraction
        );
        assert!(out.jsonl.lines().count() > 100, "trace suspiciously small");
        assert!(out.timeseq_csv.starts_with("series,x,y\n"));
        // Every line parses as a flat JSON object.
        for l in out.jsonl.lines() {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad JSONL: {l}");
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = run_trace(&TraceSpec::default()).unwrap();
        let b = run_trace(&TraceSpec::default()).unwrap();
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.timeseq_csv, b.timeseq_csv);
    }

    #[test]
    fn tcp_trace_has_no_meet_point() {
        let out = run_trace(&TraceSpec {
            protocol: Protocol::Tcp,
            ..Default::default()
        })
        .unwrap();
        assert!(out.meet.is_none());
        assert!(out.jsonl.contains("\"found\":false"));
    }
}
