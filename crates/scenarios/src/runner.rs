//! The pieces every run loop shares: advancing a simulator under the job
//! watchdog, and turning a workload schedule into flows.
//!
//! Building a topology, starting flows and judging the run is
//! [`crate::simcheck::run_case`]'s job, for every figure as for every fuzz
//! case; weather drives its own open-loop simulator with
//! [`run_until_checked`].

use crate::protocols::Protocol;
use crate::simcheck::FlowSpec;
use netsim::SimTime;
use transport::TransportSim;

/// Advance `sim` to `until` under the harness watchdog: every
/// `WATCHDOG_STRIDE` events the job's virtual-time/event caps are checked,
/// so a livelocked simulation panics (isolated per cell by the harness)
/// instead of hanging the sweep. With the caps disabled this is exactly
/// `run_until`.
pub fn run_until_checked(sim: &mut TransportSim, until: SimTime) {
    const WATCHDOG_STRIDE: u64 = 4096;
    let (cap_ns, cap_ev) = crate::harness::job_caps();
    if cap_ns == 0 && cap_ev == 0 {
        sim.run_until(until);
        return;
    }
    loop {
        let mut stepped = 0;
        while stepped < WATCHDOG_STRIDE {
            match sim.next_event_time() {
                Some(t) if t <= until => {
                    sim.step();
                    stepped += 1;
                }
                // Horizon reached: clamp the clock like `run_until` does.
                _ => {
                    sim.run_until(until);
                    return;
                }
            }
        }
        crate::harness::check_caps(
            sim.now().saturating_since(SimTime::ZERO).as_nanos(),
            sim.events_processed(),
        );
    }
}

/// Flows starting at the given `(time, bytes, scheme)` triples,
/// round-robin over `pairs` endpoint pairs.
pub fn round_robin(
    flows: impl IntoIterator<Item = (SimTime, u64, Protocol)>,
    pairs: usize,
) -> Vec<FlowSpec> {
    flows
        .into_iter()
        .enumerate()
        .map(|(i, (at, bytes, protocol))| FlowSpec {
            at_ns: at.as_nanos(),
            bytes,
            protocol,
            pair: i % pairs,
        })
        .collect()
}

/// [`round_robin`] over a workload [`workload::Schedule`]; flow `i` runs
/// `protocol(i)` (a closure, so the Fig. 14 mixed runs can alternate
/// schemes).
pub fn schedule_flows(
    schedule: &workload::Schedule,
    pairs: usize,
    protocol: impl Fn(usize) -> Protocol,
) -> Vec<FlowSpec> {
    let flows = schedule.flows.iter().enumerate();
    round_robin(
        flows.map(|(i, &(at, bytes))| (at, bytes, protocol(i))),
        pairs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcheck::{run_figure, CaseReport, CaseSpec, Topology};
    use netsim::topology::{DumbbellSpec, PathSpec};
    use netsim::SimDuration;
    use workload::Schedule;

    /// `flows` on the 12-pair Emulab dumbbell with 30 s of grace.
    fn dumbbell(flows: Vec<FlowSpec>) -> CaseReport {
        let topology = Topology::Dumbbell(DumbbellSpec::emulab(12));
        run_figure(&CaseSpec::new(
            1,
            topology,
            flows,
            SimDuration::from_secs(30),
        ))
    }

    fn schedule(secs: u64, utilization: f64, seed: u64) -> Schedule {
        Schedule::fixed_size(
            DumbbellSpec::emulab(1).bottleneck_rate,
            100_000,
            utilization,
            SimTime::ZERO + SimDuration::from_secs(secs),
            netsim::rng::SimRng::new(seed),
        )
    }

    #[test]
    fn dumbbell_completes_light_load() {
        let flows = schedule_flows(&schedule(30, 0.2, 5), 12, |_| Protocol::Halfback);
        let out = dumbbell(flows.clone());
        assert!(out.completed >= flows.len() * 9 / 10, "most flows complete");
        assert_eq!(out.censored, flows.len() - out.completed - out.aborted);
        assert!(out.bottlenecks[0].tx_bytes > 0);
    }

    #[test]
    fn mixed_protocols_are_attributed() {
        let alternate = |i: usize| [Protocol::Tcp, Protocol::Halfback][i % 2];
        let out = dumbbell(schedule_flows(&schedule(20, 0.2, 6), 12, alternate));
        let named = |p: Protocol| {
            out.records
                .iter()
                .filter(|r| r.protocol == p.name())
                .count()
        };
        let (tcp, hb) = (named(Protocol::Tcp), named(Protocol::Halfback));
        assert!(tcp > 0 && hb > 0);
        assert_eq!(tcp + hb, out.records.len());
    }

    #[test]
    fn path_runs_sequential_flows() {
        let spec = PathSpec::clean(netsim::Rate::from_mbps(50), SimDuration::from_millis(40));
        let flows = (0..3)
            .map(|i| FlowSpec {
                at_ns: i * 1_000_000_000,
                bytes: 100_000,
                protocol: Protocol::Tcp,
                pair: 0,
            })
            .collect();
        let case = CaseSpec::new(3, Topology::Path(spec), flows, SimDuration::from_secs(60));
        let out = run_figure(&case);
        assert_eq!(out.completed_records().len(), 3);
        assert_eq!(out.censored, 0);
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let flows = schedule_flows(&schedule(10, 0.5, 8), 12, |_| Protocol::JumpStart);
        let fcts = |out: CaseReport| -> Vec<u64> {
            out.completed_records()
                .iter()
                .map(|r| r.fct.as_nanos())
                .collect()
        };
        let a = fcts(dumbbell(flows.clone()));
        assert!(!a.is_empty());
        assert_eq!(a, fcts(dumbbell(flows)));
    }
}
