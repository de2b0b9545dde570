//! Property-style fuzzing of the whole stack: random protocol mixes,
//! sizes, and loads on the dumbbell must always run to completion without
//! panics, stray packets, or unaccounted flows. Cases are drawn from a
//! seeded [`SimRng`] so every run checks the same corpus.

use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use scenarios::runner::round_robin;
use scenarios::simcheck::{run_figure, CaseSpec, Topology};
use scenarios::Protocol;

const MENU: [Protocol; 10] = [
    Protocol::Tcp,
    Protocol::Tcp10,
    Protocol::TcpCache,
    Protocol::Reactive,
    Protocol::Proactive,
    Protocol::JumpStart,
    Protocol::Pcp,
    Protocol::Halfback,
    Protocol::HalfbackForward,
    Protocol::HalfbackBurst,
];

/// Arbitrary mixed workloads: everything completes (given generous
/// grace), accounting adds up, and every oracle holds.
#[test]
fn random_mixes_run_clean() {
    let mut gen = SimRng::new(0xF022);
    for case in 0..24 {
        let seed = 1 + gen.index(9_999) as u64;
        let n_flows = 1 + gen.index(39);
        let util_scale = 1 + gen.index(7) as u32; // controls arrival spacing

        let mut rng = SimRng::new(seed);
        let mut at = SimTime::ZERO;
        let mut plans = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            at += SimDuration::from_millis((rng.exponential(80.0 * util_scale as f64)) as u64);
            let bytes = match rng.index(4) {
                0 => 1 + rng.index(3000) as u64,
                1 => 10_000 + rng.index(90_000) as u64,
                2 => 100_000,
                _ => 200_000 + rng.index(800_000) as u64,
            };
            let protocol = MENU[rng.index(MENU.len())];
            plans.push((at, bytes, protocol));
        }
        let flows = round_robin(plans.iter().copied(), 6);
        let topology = Topology::Dumbbell(DumbbellSpec::emulab(6));
        let out = run_figure(&CaseSpec::new(
            seed,
            topology,
            flows,
            SimDuration::from_secs(180),
        ));
        assert_eq!(out.completed + out.censored, plans.len(), "case {case}");
        // With 180 s of grace at these light loads nothing should be stuck.
        assert_eq!(
            out.censored, 0,
            "case {case} (seed {seed}): censored flows in a light mix"
        );
        // Each record corresponds to a planned flow with matching size.
        for r in &out.records {
            assert!(
                plans
                    .iter()
                    .any(|&(_, bytes, p)| bytes == r.bytes && p.name() == r.protocol),
                "case {case}: record with no matching plan"
            );
            assert!(r.fct.as_nanos() > 0, "case {case}");
        }
    }
}
