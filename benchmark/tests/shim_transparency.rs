//! The timing shims must be invisible to the simulation: the same seeded
//! congested dumbbell, with and without `TimedNode`/`TimedStrategy`, yields
//! identical flow records, event counts and link statistics. A shim that
//! forgets to forward one hook fails here, not in a misleading breakdown.

use hbbench::rigs::{dumbbell, Shim};
use hbbench::trace::{self, Span};
use netsim::LinkId;
use scenarios::Protocol;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::Host;

/// Everything observable about a finished run, rendered for comparison
/// (`FlowRecord` and `LinkStats` implement `Debug`, not `PartialEq`).
fn observe(
    protocol: Protocol,
    make_strategy: impl Fn(Box<dyn Strategy>) -> Box<dyn Strategy>,
    shim: Shim,
) -> (Vec<String>, u64, Vec<String>) {
    let (sim, net, started) =
        dumbbell::simulate(protocol, 11, 60, || shim.host(), make_strategy, |_| ());
    let records: Vec<String> = net
        .left_hosts
        .iter()
        .flat_map(|&h| sim.node_as::<Host>(h).expect("a Host").completed())
        .map(|r| format!("{r:?}"))
        .collect();
    assert!(records.len() as u64 > started / 2, "most flows finish");
    let links = (0..sim.link_count())
        .map(|i| {
            let l = LinkId(i as u32);
            format!("{:?} {:?}", sim.link_stats(l), sim.queue_stats(l))
        })
        .collect();
    (records, sim.events_processed(), links)
}

#[test]
fn shims_do_not_change_the_simulation() {
    for protocol in dumbbell::PROTOCOLS {
        let plain = observe(protocol, |s| s, Shim(false));
        trace::start();
        let shimmed = observe(protocol, |s| Shim(true).wrap_strategy(s), Shim(true));
        let data = trace::stop();
        assert_eq!(plain.1, shimmed.1, "{}: events_processed", protocol.name());
        assert_eq!(
            plain.2,
            shimmed.2,
            "{}: link and queue stats",
            protocol.name()
        );
        assert_eq!(plain.0, shimmed.0, "{}: flow records", protocol.name());
        // The comparison is only worth something if the shims were live and
        // the run was lossy enough to exercise the recovery hooks.
        assert!(data.calls(Span::is_host_dispatch) > 0);
        assert!(
            data.calls(|s| s == Span::OnLossDetected) > 0,
            "{}",
            protocol.name()
        );
    }
}

/// A wrapper that forwards the required hooks and forgets one defaulted
/// method — the mistake the test above exists to catch.
struct Forgetful(Box<dyn Strategy>);

impl Strategy for Forgetful {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        self.0.on_established(ops)
    }
    fn on_ack(
        &mut self,
        ops: &mut Ops<'_, '_>,
        ack: &transport::wire::AckHeader,
        outcome: &transport::scoreboard::AckOutcome,
    ) {
        self.0.on_ack(ops, ack, outcome)
    }
    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, lost: &[transport::wire::SegId]) {
        self.0.on_loss_detected(ops, lost)
    }
    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        self.0.on_rto(ops)
    }
    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> transport::PaceAction {
        self.0.on_pace_tick(ops)
    }
    fn on_complete(&mut self, ops: &mut Ops<'_, '_>) {
        self.0.on_complete(ops)
    }
    // naive_loss_remarking: forgotten, so JumpStart silently loses the
    // behaviour the paper blames for its collapse.
}

#[test]
fn a_forgotten_hook_is_caught() {
    let plain = observe(Protocol::JumpStart, |s| s, Shim(false));
    let broken = observe(Protocol::JumpStart, |s| Box::new(Forgetful(s)), Shim(false));
    assert_ne!(
        plain, broken,
        "the transparency check cannot see a forgotten hook"
    );
}
