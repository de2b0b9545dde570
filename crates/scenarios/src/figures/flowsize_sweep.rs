//! Fig. 11: FCT as a function of flow size under the three measured
//! flow-size distributions (Internet / Benson / VL2), truncated at 1 MB,
//! offered at 25 % utilization (§4.2.4).

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::runner::schedule_flows;
use crate::simcheck::{run_figure, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use transport::sender::FlowRecord;
use workload::{Schedule, TraceKind};

/// Size-bucket width for the FCT-vs-size series.
const BUCKET_BYTES: u64 = 25_000;

/// Bucket records into (bucket-center KB, mean FCT ms) points.
pub fn bucketize(records: &[FlowRecord]) -> Vec<(f64, f64)> {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for r in records {
        let b = r.bytes / BUCKET_BYTES;
        let e = buckets.entry(b).or_insert((0.0, 0));
        e.0 += r.fct.as_millis_f64();
        e.1 += 1;
    }
    buckets
        .into_iter()
        .filter(|(_, (_, n))| *n >= 3) // drop nearly-empty buckets
        .map(|(b, (sum, n))| {
            (
                (b as f64 + 0.5) * BUCKET_BYTES as f64 / 1000.0,
                sum / n as f64,
            )
        })
        .collect()
}

/// Run one (trace, protocol) cell, returning completed records.
pub fn cell(trace: TraceKind, protocol: Protocol, scale: Scale) -> Vec<FlowRecord> {
    let spec = DumbbellSpec::emulab(12);
    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(400), SimDuration::from_secs(40));
    let schedule = Schedule::variable_size(
        spec.bottleneck_rate,
        trace.mean_truncated(),
        0.25,
        horizon,
        SimRng::new(37).fork(trace.name()),
        move |rng| trace.sample_truncated(rng),
    );
    let flows = schedule_flows(&schedule, 12, |_| protocol);
    let (topology, grace) = (Topology::Dumbbell(spec), SimDuration::from_secs(60));
    let case = CaseSpec::new(41, topology, flows, grace);
    run_figure(&case).completed_records()
}

/// Render Fig. 11(a,b,c).
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let protos: Vec<Protocol> = match scale {
        Scale::Full => Protocol::EVALUATED.to_vec(),
        Scale::Quick => vec![
            Protocol::Tcp,
            Protocol::Tcp10,
            Protocol::TcpCache,
            Protocol::JumpStart,
            Protocol::Halfback,
        ],
    };
    // One harness job per (trace, protocol) cell.
    let grid: Vec<(TraceKind, Protocol)> = TraceKind::ALL
        .into_iter()
        .flat_map(|t| protos.iter().map(move |&p| (t, p)))
        .collect();
    let cells = crate::harness::parallel_map(
        ctx,
        grid,
        |&(t, p)| format!("fig11/{}/{}", t.name(), p.name()),
        |(t, p)| cell(t, p, scale),
    );
    TraceKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, trace)| {
            let sub = [b'a', b'b', b'c'][i] as char;
            let mut fig = Figure::new(
                &format!("fig11{sub}"),
                &format!("FCT vs flow size, {} distribution, 25% utilization", trace.name()),
                "flow size (KB)",
                "mean FCT (ms)",
            );
            let mut tiny: Vec<(Protocol, f64)> = Vec::new();
            let mut big: Vec<(Protocol, f64)> = Vec::new();
            for (pi, &p) in protos.iter().enumerate() {
                let recs = &cells[i * protos.len() + pi];
                let series = bucketize(recs);
                if let Some(&(_, y)) = series.first() {
                    tiny.push((p, y));
                }
                let late: Vec<f64> = series
                    .iter()
                    .filter(|&&(x, _)| (75.0..=200.0).contains(&x))
                    .map(|&(_, y)| y)
                    .collect();
                if !late.is_empty() {
                    big.push((p, late.iter().sum::<f64>() / late.len() as f64));
                }
                fig.push_series(p.name(), series);
            }
            let get = |v: &[(Protocol, f64)], p: Protocol| {
                v.iter().find(|(q, _)| *q == p).map(|(_, m)| *m).unwrap_or(f64::NAN)
            };
            fig.note(format!(
                "smallest bucket: TCP-Cache {:.0} ms vs Halfback {:.0} ms (paper: cache wins small flows)",
                get(&tiny, Protocol::TcpCache),
                get(&tiny, Protocol::Halfback)
            ));
            fig.note(format!(
                "75-200 KB: Halfback {:.0} ms vs TCP {:.0} ms vs TCP-10 {:.0} ms (paper: Halfback/JumpStart best past ~75 KB)",
                get(&big, Protocol::Halfback),
                get(&big, Protocol::Tcp),
                get(&big, Protocol::Tcp10)
            ));
            fig
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FlowId, SimTime};
    use transport::sender::Counters;

    fn rec(bytes: u64, fct_ms: u64) -> FlowRecord {
        FlowRecord {
            flow: FlowId(0),
            protocol: "t",
            bytes,
            start: SimTime::ZERO,
            established_at: SimTime::ZERO,
            done_at: SimTime::ZERO + SimDuration::from_millis(fct_ms),
            fct: SimDuration::from_millis(fct_ms),
            counters: Counters::default(),
            min_rtt: None,
            outcome: transport::FlowOutcome::Completed,
        }
    }

    #[test]
    fn bucketize_means_and_drops_thin_buckets() {
        // Bucket 0 (0-25KB): four records -> kept; bucket 4 (100-125KB):
        // two records -> dropped (needs >= 3).
        let recs = vec![
            rec(10_000, 100),
            rec(12_000, 200),
            rec(20_000, 300),
            rec(24_000, 400),
            rec(110_000, 900),
            rec(120_000, 1100),
        ];
        let pts = bucketize(&recs);
        assert_eq!(pts.len(), 1);
        let (x_kb, mean) = pts[0];
        assert!((x_kb - 12.5).abs() < 1e-9, "bucket center {x_kb}");
        assert!((mean - 250.0).abs() < 1e-9, "bucket mean {mean}");
    }

    #[test]
    fn bucketize_sorted_by_size() {
        let recs: Vec<FlowRecord> = (1..=12).map(|i| rec(i * 30_000, 100 * i)).collect();
        let pts = bucketize(&recs);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
