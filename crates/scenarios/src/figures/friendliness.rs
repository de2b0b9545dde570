//! Fig. 14: TCP-friendliness scatter (§4.3.3).
//!
//! Half the flows run TCP, half run one non-TCP scheme, at utilizations
//! 5–30 %. For each (scheme, utilization): x = mean FCT of the TCP flows
//! divided by their all-TCP reference; y = mean FCT of the non-TCP flows
//! divided by their all-non-TCP reference. Friendly schemes sit near (1,1).

use crate::harness::RunCtx;
use crate::metrics::FctStats;
use crate::report::Figure;
use crate::runner::schedule_flows;
use crate::simcheck::{run_figure, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use workload::Schedule;

/// Utilizations scanned (paper: 5–30 % step 5).
pub fn utilizations(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (1..=6).map(|i| i as f64 * 0.05).collect(),
        Scale::Quick => vec![0.1, 0.3],
    }
}

/// The non-TCP schemes plotted.
pub fn protocols() -> [Protocol; 6] {
    [
        Protocol::JumpStart,
        Protocol::Halfback,
        Protocol::Proactive,
        Protocol::Reactive,
        Protocol::Tcp10,
        Protocol::Pcp,
    ]
}

fn mean_fct(records: &[transport::FlowRecord], censored: usize) -> f64 {
    FctStats::from_records(records, censored).mean_ms
}

/// One (scheme, utilization) point: (x, y) as defined above.
pub fn point(protocol: Protocol, utilization: f64, scale: Scale) -> (f64, f64) {
    let spec = DumbbellSpec::emulab(12);
    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(200), SimDuration::from_secs(30));
    let srng = SimRng::new(61).fork_indexed("friendly", (utilization * 1000.0) as u64);
    let schedule = Schedule::fixed_size(spec.bottleneck_rate, 100_000, utilization, horizon, srng);
    let run = |scheme: &dyn Fn(usize) -> Protocol| {
        let flows = schedule_flows(&schedule, 12, scheme);
        let (topology, grace) = (Topology::Dumbbell(spec.clone()), SimDuration::from_secs(60));
        run_figure(&CaseSpec::new(67, topology, flows, grace))
    };
    // Mixed run: even-indexed flows TCP, odd-indexed the scheme.
    let mixed = run(&|i| if i % 2 == 0 { Protocol::Tcp } else { protocol }).completed_records();
    // References under the same schedule.
    let all_tcp = run(&|_| Protocol::Tcp);
    let all_x = run(&|_| protocol);

    let records_for = |p: Protocol| -> Vec<transport::FlowRecord> {
        mixed
            .iter()
            .filter(|r| r.protocol == p.name())
            .cloned()
            .collect()
    };
    let x_axis = mean_fct(&records_for(Protocol::Tcp), 0)
        / mean_fct(&all_tcp.completed_records(), all_tcp.censored);
    let y_axis =
        mean_fct(&records_for(protocol), 0) / mean_fct(&all_x.completed_records(), all_x.censored);
    (x_axis, y_axis)
}

/// Render Fig. 14.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let mut fig = Figure::new(
        "fig14",
        "TCP-friendliness: FCT change of TCP (x) and non-TCP (y) flows under co-existence",
        "FCT of TCP vs reference",
        "FCT of non-TCP scheme vs reference",
    );
    // One harness job per (scheme, utilization) point (each point is
    // three dumbbell runs: mixed + two references).
    let utils = utilizations(scale);
    let grid: Vec<(Protocol, f64)> = protocols()
        .into_iter()
        .flat_map(|p| utils.iter().map(move |&u| (p, u)))
        .collect();
    let points = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, u)| format!("fig14/{}/u{:.0}", p.name(), u * 100.0),
        |(p, u)| point(p, u, scale),
    );
    for (pi, p) in protocols().into_iter().enumerate() {
        let pts: Vec<(f64, f64)> = points[pi * utils.len()..(pi + 1) * utils.len()].to_vec();
        // Distance from the friendly point (1, 1), worst case across loads.
        let worst = pts
            .iter()
            .map(|&(x, y)| ((x - 1.0).abs()).max((y - 1.0).abs()))
            .fold(0.0, f64::max);
        fig.note(format!(
            "{}: max deviation from (1,1) = {:.2}",
            p.name(),
            worst
        ));
        fig.push_series(p.name(), pts);
    }
    fig.note("paper: Halfback/TCP-10/TCP-Cache/Reactive near (1,1); JumpStart and Proactive push TCP right; PCP sits high on y".to_string());
    vec![fig]
}
