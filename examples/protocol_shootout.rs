//! Protocol shootout: run every scheme the paper evaluates over the same
//! Poisson workload on the Emulab dumbbell and print a head-to-head table.
//!
//! ```text
//! cargo run --release -p scenarios --example protocol_shootout [utilization] [flow_kb]
//! cargo run --release -p scenarios --example protocol_shootout 0.5 100
//! ```

use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use scenarios::metrics::FctStats;
use scenarios::runner::schedule_flows;
use scenarios::simcheck::{run_figure, CaseSpec, Topology};
use scenarios::Protocol;
use workload::Schedule;

fn main() {
    let utilization: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let flow_kb: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let flow_bytes = flow_kb * 1000;
    assert!(utilization > 0.0 && utilization < 1.0);

    let spec = DumbbellSpec::emulab(12);
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    // One shared arrival schedule: every scheme sees identical flows.
    let schedule = Schedule::fixed_size(
        spec.bottleneck_rate,
        flow_bytes,
        utilization,
        horizon,
        SimRng::new(7).fork("shootout"),
    );
    println!(
        "{} flows of {} KB at {:.0}% utilization, identical arrivals for all schemes\n",
        schedule.flows.len(),
        flow_kb,
        utilization * 100.0
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "scheme", "mean (ms)", "median", "p99", "retx/flow", "pro/flow", "RTOs"
    );
    for p in Protocol::EVALUATED {
        let flows = schedule_flows(&schedule, 12, |_| p);
        let topology = Topology::Dumbbell(spec.clone());
        let out = run_figure(&CaseSpec::new(
            1,
            topology,
            flows,
            SimDuration::from_secs(30),
        ));
        let s = FctStats::from_records(&out.completed_records(), out.censored);
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>10.0} {:>9.2} {:>9.2} {:>9.2}",
            p.name(),
            s.mean_ms,
            s.median_ms,
            s.p99_ms,
            s.mean_normal_retx,
            s.mean_proactive_retx,
            s.mean_rtos
        );
    }
    println!(
        "\nTry higher utilizations (0.6, 0.7, 0.8) to watch JumpStart collapse\n\
         while Halfback holds — the paper's Fig. 12 in miniature."
    );
}
