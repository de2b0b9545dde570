//! Robustness: every scheme must complete flows under hostile conditions —
//! heavy random loss, bursty wireless loss, tiny buffers, tiny and odd
//! flow sizes, extreme RTTs — without stalling or panicking.

use netsim::loss::LossModel;
use netsim::topology::PathSpec;
use netsim::{Rate, SimDuration};
use scenarios::simcheck::{run_figure, single_path_flow, CaseSpec, FlowSpec, Topology};
use scenarios::Protocol;
use transport::FlowRecord;

const ALL: [Protocol; 8] = Protocol::EVALUATED;

/// One flow at t = 0 with two minutes of grace: its record if it completed.
fn one_flow(spec: &PathSpec, protocol: Protocol, bytes: u64, seed: u64) -> Option<FlowRecord> {
    single_path_flow(spec, protocol, bytes, seed, SimDuration::from_secs(120))
}

fn clean_path() -> PathSpec {
    PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(50))
}

#[test]
fn heavy_random_loss_still_completes() {
    let mut spec = clean_path();
    spec.loss = LossModel::Bernoulli { p: 0.10 };
    for p in ALL {
        let rec = one_flow(&spec, p, 100_000, 77)
            .unwrap_or_else(|| panic!("{p} did not finish under 10% loss"));
        assert!(rec.fct.as_millis_f64() > 100.0, "{p}");
    }
}

#[test]
fn bursty_wifi_loss_still_completes() {
    let mut spec = clean_path();
    spec.loss = LossModel::wifi_bursty();
    for p in ALL {
        for seed in [1u64, 2, 3] {
            assert!(
                one_flow(&spec, p, 100_000, seed).is_some(),
                "{p} stalled under bursty wifi loss (seed {seed})"
            );
        }
    }
}

#[test]
fn lossy_ack_path_still_completes() {
    let mut spec = clean_path();
    spec.reverse_loss = LossModel::Bernoulli { p: 0.05 };
    for p in ALL {
        assert!(
            one_flow(&spec, p, 100_000, 5).is_some(),
            "{p} stalled with lossy ACKs"
        );
    }
}

#[test]
fn tiny_buffer_still_completes() {
    let mut spec = clean_path();
    spec.buffer = 3_000; // two packets
    for p in ALL {
        assert!(
            one_flow(&spec, p, 100_000, 6).is_some(),
            "{p} stalled with a 2-packet buffer"
        );
    }
}

#[test]
fn odd_flow_sizes_complete() {
    let spec = clean_path();
    // 1 byte, one MSS, MSS+1, an odd prime, a fraction of the window, and
    // just past the 141 KB pacing threshold.
    for bytes in [1u64, 1460, 1461, 77_777, 140_999, 141_001, 142_000] {
        for p in ALL {
            let rec = one_flow(&spec, p, bytes, 8)
                .unwrap_or_else(|| panic!("{p} did not finish {bytes} bytes"));
            assert_eq!(rec.bytes, bytes, "{p}");
        }
    }
}

#[test]
fn extreme_rtts_complete() {
    for rtt_ms in [1u64, 400] {
        let spec = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(rtt_ms));
        for p in ALL {
            let rec = one_flow(&spec, p, 100_000, 9)
                .unwrap_or_else(|| panic!("{p} failed at {rtt_ms}ms RTT"));
            assert!(
                rec.fct.as_millis_f64() >= rtt_ms as f64,
                "{p}: FCT below one RTT at {rtt_ms}ms?"
            );
        }
    }
}

#[test]
fn slow_link_completes() {
    // 1 Mbps DSL-ish: 100 KB takes at least 800 ms of serialization.
    let spec = PathSpec::clean(Rate::from_mbps(1), SimDuration::from_millis(40));
    for p in ALL {
        let rec =
            one_flow(&spec, p, 100_000, 10).unwrap_or_else(|| panic!("{p} failed on 1 Mbps link"));
        assert!(rec.fct.as_millis_f64() > 800.0, "{p} beat the line rate");
    }
}

#[test]
fn syn_loss_is_survived() {
    let mut spec = clean_path();
    // Drop the very first packet on the wire (the SYN).
    spec.loss = LossModel::DropList { ordinals: vec![1] };
    for p in ALL {
        let rec = one_flow(&spec, p, 50_000, 11)
            .unwrap_or_else(|| panic!("{p} never recovered from SYN loss"));
        // Handshake retry costs at least the initial RTO (1 s).
        assert!(rec.fct.as_millis_f64() > 1000.0, "{p}: {}", rec.fct);
        assert!(rec.counters.syn_sent >= 2, "{p}");
    }
}

/// `flows` (time in ms, scheme), 100 KB each, on `spec`, judged.
fn run_path(spec: &PathSpec, flows: &[(u64, Protocol)], seed: u64) -> Vec<FlowRecord> {
    let flows = flows
        .iter()
        .map(|&(at_ms, protocol)| FlowSpec {
            at_ns: at_ms * 1_000_000,
            bytes: 100_000,
            protocol,
            pair: 0,
        })
        .collect();
    let case = CaseSpec::new(
        seed,
        Topology::Path(spec.clone()),
        flows,
        SimDuration::from_secs(60),
    );
    let out = run_figure(&case);
    assert_eq!(out.censored, 0);
    out.completed_records()
}

#[test]
fn back_to_back_flows_on_one_path() {
    // Five sequential flows per scheme on the same path; all must finish
    // and TCP-Cache must warm up.
    let spec = clean_path();
    for p in ALL {
        let flows: Vec<(u64, Protocol)> = (0..5).map(|i| (1500 * i, p)).collect();
        let records = run_path(&spec, &flows, 13);
        assert_eq!(records.len(), 5, "{p}");
        if p == Protocol::TcpCache {
            let first = records[0].fct;
            let last = records[4].fct;
            assert!(last < first, "TCP-Cache did not warm up: {first} -> {last}");
        }
    }
}

#[test]
fn concurrent_flows_one_sender() {
    // Two flows from the same host at the same instant must not interfere
    // with each other's bookkeeping (the judge checks strays and delivery).
    let records = run_path(
        &clean_path(),
        &[(0, Protocol::Halfback), (0, Protocol::Tcp)],
        21,
    );
    assert_eq!(records.len(), 2);
}
