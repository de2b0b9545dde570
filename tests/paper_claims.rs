//! Cross-crate integration tests asserting the paper's headline claims at
//! reduced (Quick) scale. These are the repository's "shape" guarantees:
//! who wins, in which regime, and by roughly what kind of margin.

use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use scenarios::figures::{bufferbloat, feasible, planetlab, web_response};
use scenarios::harness::RunCtx;
use scenarios::metrics::{feasible_capacity, FctStats};
use scenarios::runner::schedule_flows;
use scenarios::simcheck::{run_figure, CaseSpec, Topology};
use scenarios::{Protocol, Scale};
use workload::Schedule;

fn mean_fct_at(protocol: Protocol, utilization: f64, secs: u64) -> FctStats {
    let spec = DumbbellSpec::emulab(12);
    let horizon = SimTime::ZERO + SimDuration::from_secs(secs);
    let schedule = Schedule::fixed_size(
        spec.bottleneck_rate,
        100_000,
        utilization,
        horizon,
        SimRng::new(42).fork_indexed("claims", (utilization * 1000.0) as u64),
    );
    let flows = schedule_flows(&schedule, 12, |_| protocol);
    let case = CaseSpec::new(
        1,
        Topology::Dumbbell(spec),
        flows,
        SimDuration::from_secs(30),
    );
    let out = run_figure(&case);
    FctStats::from_records(&out.completed_records(), out.censored)
}

/// §4.2.1 / Fig. 6: at low load, the latency order is
/// Halfback <= JumpStart < TCP-10 < TCP <= Proactive.
#[test]
fn low_load_latency_ordering() {
    let fct = |p| mean_fct_at(p, 0.05, 30).mean_ms;
    let hb = fct(Protocol::Halfback);
    let js = fct(Protocol::JumpStart);
    let t10 = fct(Protocol::Tcp10);
    let tcp = fct(Protocol::Tcp);
    let pro = fct(Protocol::Proactive);
    assert!(hb <= js * 1.05, "Halfback {hb} vs JumpStart {js}");
    assert!(js < t10, "JumpStart {js} vs TCP-10 {t10}");
    assert!(t10 < tcp, "TCP-10 {t10} vs TCP {tcp}");
    assert!(tcp < pro, "TCP {tcp} vs Proactive {pro}");
}

/// Fig. 12's central safety claim: Halfback's feasible capacity clearly
/// exceeds JumpStart's (paper: 70% vs 50%), and the TCP family exceeds
/// both (paper: 85-90%).
#[test]
fn feasible_capacity_ordering() {
    let ctx = RunCtx::new(Scale::Quick);
    let fc = |p| {
        let (_, pts) = feasible::sweep_many(&[p], &ctx, 42).remove(0);
        feasible_capacity(
            &pts,
            feasible::COLLAPSE_FACTOR,
            feasible::COLLAPSE_FLOOR_MS,
            feasible::MIN_COMPLETION,
        )
    };
    let hb = fc(Protocol::Halfback);
    let js = fc(Protocol::JumpStart);
    let tcp = fc(Protocol::Tcp);
    assert!(hb > js, "Halfback feasible {hb} must exceed JumpStart {js}");
    assert!(tcp >= hb, "TCP feasible {tcp} must be >= Halfback {hb}");
    assert!(
        js >= 0.3,
        "JumpStart should still be feasible at moderate load, got {js}"
    );
}

/// §4.2.1 headline: Halfback cuts mean FCT vs every baseline on the
/// PlanetLab-style population (paper: 13% vs JumpStart, 52% vs TCP,
/// 29% vs TCP-10, 51% vs Reactive, 61% vs Proactive).
#[test]
fn planetlab_headline_reductions() {
    let data = planetlab::run(&RunCtx::new(Scale::Quick));
    let mean = |p: Protocol| {
        let recs = data.records(p);
        recs.iter().map(|r| r.fct.as_millis_f64()).sum::<f64>() / recs.len() as f64
    };
    let hb = mean(Protocol::Halfback);
    assert!(hb < mean(Protocol::JumpStart) * 0.97, "vs JumpStart");
    assert!(hb < mean(Protocol::Tcp) * 0.65, "vs TCP");
    assert!(hb < mean(Protocol::Tcp10) * 0.85, "vs TCP-10");
    assert!(hb < mean(Protocol::Reactive) * 0.65, "vs Reactive");
    assert!(hb < mean(Protocol::Proactive) * 0.60, "vs Proactive");
}

/// Fig. 7: most Halfback flows finish in a small handful of RTTs; TCP
/// needs roughly three times more (paper: "one third of TCP's time").
#[test]
fn rtt_count_ratio() {
    let data = planetlab::run(&RunCtx::new(Scale::Quick));
    let med_rtts = |p: Protocol| {
        let recs = data.records(p);
        scenarios::metrics::rtt_count_ecdf(&recs).median().unwrap()
    };
    let hb = med_rtts(Protocol::Halfback);
    let tcp = med_rtts(Protocol::Tcp);
    assert!(hb <= 3.5, "Halfback median RTTs {hb}");
    assert!(tcp / hb >= 2.0, "TCP/Halfback RTT ratio {:.2}", tcp / hb);
}

/// Fig. 10(b): with small router buffers, Halfback needs far fewer normal
/// retransmissions than JumpStart (paper: 6 vs ~57, i.e. ~10%).
#[test]
fn small_buffer_retransmissions() {
    let hb = bufferbloat::cell(Protocol::Halfback, 15_000, Scale::Quick);
    let js = bufferbloat::cell(Protocol::JumpStart, 15_000, Scale::Quick);
    assert!(
        hb.mean_normal_retx < js.mean_normal_retx * 0.35,
        "Halfback {:.1} vs JumpStart {:.1} normal retx",
        hb.mean_normal_retx,
        js.mean_normal_retx
    );
    // And Halfback's FCT is much lower there too (paper: up to 45% lower).
    assert!(
        hb.mean_ms < js.mean_ms * 0.8,
        "FCT {} vs {}",
        hb.mean_ms,
        js.mean_ms
    );
}

/// Fig. 16: at the application level Halfback beats JumpStart, and
/// JumpStart falls behind TCP by ~30% utilization.
#[test]
fn web_level_ordering() {
    let hb = web_response::run_web(Protocol::Halfback, 0.3, Scale::Quick);
    let js = web_response::run_web(Protocol::JumpStart, 0.3, Scale::Quick);
    let tcp = web_response::run_web(Protocol::Tcp, 0.3, Scale::Quick);
    assert!(
        hb.mean_ms() < js.mean_ms(),
        "Halfback pages {:.0} vs JumpStart {:.0}",
        hb.mean_ms(),
        js.mean_ms()
    );
    assert!(
        js.mean_ms() > tcp.mean_ms() * 0.95,
        "JumpStart {:.0} should have caught up with TCP {:.0} by 30%",
        js.mean_ms(),
        tcp.mean_ms()
    );
}

/// §5 ablations: both the forward-order and line-rate ROPR variants are
/// less safe than the real design at high utilization.
#[test]
fn ablations_are_worse_under_load() {
    let at = |p| mean_fct_at(p, 0.65, 40);
    let hb = at(Protocol::Halfback);
    let fwd = at(Protocol::HalfbackForward);
    let burst = at(Protocol::HalfbackBurst);
    assert!(
        fwd.mean_ms > hb.mean_ms,
        "forward ROPR {:.0} must be worse than reverse {:.0} under load",
        fwd.mean_ms,
        hb.mean_ms
    );
    assert!(
        burst.mean_ms > hb.mean_ms,
        "line-rate ROPR {:.0} must be worse than ACK-clocked {:.0} under load",
        burst.mean_ms,
        hb.mean_ms
    );
}

/// Fig. 13 directionality: in a 10/90 short/long mix, Halfback shorts are
/// far faster than TCP shorts while longs are barely slowed.
#[test]
fn long_short_mix() {
    use scenarios::figures::long_short;
    let (hb_short, hb_long) = long_short::cell(Protocol::Halfback, 0.5, Scale::Quick);
    let (tcp_short, tcp_long) = long_short::cell(Protocol::Tcp, 0.5, Scale::Quick);
    assert!(
        hb_short.mean_ms < tcp_short.mean_ms * 0.7,
        "short flows: Halfback {:.0} vs TCP {:.0}",
        hb_short.mean_ms,
        tcp_short.mean_ms
    );
    if hb_long.completed > 0 && tcp_long.completed > 0 {
        assert!(
            hb_long.mean_ms < tcp_long.mean_ms * 1.25,
            "long flows slowed too much: {:.0} vs {:.0}",
            hb_long.mean_ms,
            tcp_long.mean_ms
        );
    }
}

/// Proactive TCP is the safety floor: it collapses earlier than Halfback
/// (paper: 45% vs 70%).
#[test]
fn proactive_collapses_before_halfback() {
    let at = |p, u| mean_fct_at(p, u, 40);
    let hb = at(Protocol::Halfback, 0.65);
    let pro = at(Protocol::Proactive, 0.65);
    // Proactive's relative degradation vs its own low-load baseline is
    // worse than Halfback's.
    let hb_base = at(Protocol::Halfback, 0.05).mean_ms;
    let pro_base = at(Protocol::Proactive, 0.05).mean_ms;
    assert!(
        pro.mean_ms / pro_base > hb.mean_ms / hb_base,
        "Proactive degradation {:.1}x vs Halfback {:.1}x",
        pro.mean_ms / pro_base,
        hb.mean_ms / hb_base
    );
}
