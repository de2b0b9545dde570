//! Reproducibility guarantees: identical seeds give bit-identical results
//! through every layer of the stack, and different seeds genuinely differ.

use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use scenarios::figures::{walkthrough, web_response};
use scenarios::runner::schedule_flows;
use scenarios::simcheck::{run_figure, single_path_flow, CaseSpec, Topology};
use scenarios::{Protocol, Scale};
use workload::{planetlab_paths, Corpus, Schedule};

fn fingerprint(protocol: Protocol, seed: u64) -> Vec<(u64, u64)> {
    let spec = DumbbellSpec::emulab(12);
    let horizon = SimTime::ZERO + SimDuration::from_secs(15);
    let schedule = Schedule::fixed_size(
        spec.bottleneck_rate,
        100_000,
        0.6,
        horizon,
        SimRng::new(seed),
    );
    let flows = schedule_flows(&schedule, 12, |_| protocol);
    let case = CaseSpec::new(
        seed,
        Topology::Dumbbell(spec),
        flows,
        SimDuration::from_secs(30),
    );
    run_figure(&case)
        .completed_records()
        .iter()
        .map(|r| (r.fct.as_nanos(), r.counters.data_packets_sent))
        .collect()
}

#[test]
fn dumbbell_runs_are_bit_reproducible() {
    for p in [
        Protocol::Tcp,
        Protocol::JumpStart,
        Protocol::Halfback,
        Protocol::Pcp,
    ] {
        assert_eq!(fingerprint(p, 11), fingerprint(p, 11), "{p}");
    }
}

#[test]
fn different_seeds_differ() {
    assert_ne!(
        fingerprint(Protocol::Halfback, 11),
        fingerprint(Protocol::Halfback, 12)
    );
}

#[test]
fn path_population_is_stable() {
    let a = planetlab_paths(100, 5);
    let b = planetlab_paths(100, 5);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.rtt, y.rtt);
        assert_eq!(x.rate, y.rate);
        assert_eq!(x.buffer, y.buffer);
    }
}

#[test]
fn path_runs_are_reproducible_with_loss() {
    let paths = planetlab_paths(20, 9);
    for (i, spec) in paths.iter().enumerate() {
        let run = || {
            let grace = SimDuration::from_secs(120);
            single_path_flow(spec, Protocol::Halfback, 100_000, 100 + i as u64, grace)
                .map(|r| r.fct.as_nanos())
        };
        assert_eq!(run(), run(), "path {i}");
    }
}

#[test]
fn web_workload_is_reproducible() {
    let a = web_response::run_web(Protocol::JumpStart, 0.25, Scale::Quick);
    let b = web_response::run_web(Protocol::JumpStart, 0.25, Scale::Quick);
    assert_eq!(a.response_ms, b.response_ms);
    assert_eq!(a.censored, b.censored);
}

#[test]
fn corpus_and_walkthrough_are_reproducible() {
    let c1 = Corpus::synthesize(50, 3);
    let c2 = Corpus::synthesize(50, 3);
    assert_eq!(c1.mean_page_bytes(), c2.mean_page_bytes());
    let (lines1, rec1) = walkthrough::run();
    let (lines2, rec2) = walkthrough::run();
    assert_eq!(lines1, lines2);
    assert_eq!(rec1.fct, rec2.fct);
}
