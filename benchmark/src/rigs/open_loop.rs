//! The `open_loop` rig: the shape of `repro weather`, rebuilt from the layer
//! constructors. It is a replica of `scenarios::weather::run_weather`, not a
//! trace of it: same topology, arrival process, size mix, window drain and
//! receiver reaping, but no `windows.csv` and no checkpoints (the checkpoint
//! cost is measured on the CLI itself, see `run::checkpoint_cost`).

use super::{single_threaded, FlowCounts, RigRun, Shim};
use crate::trace::{self, Span};
use baselines::path_cache;
use netsim::rng::SimRng;
use netsim::stats::{LogHistogram, WindowedSketch};
use netsim::topology::{build_dumbbell, DumbbellSpec};
use netsim::{FlowId, SimDuration, SimTime};
use scenarios::Protocol;
use transport::{completion_bus, Host, TransportSim};
use workload::{interarrival_for_utilization, DiurnalPoisson};

/// Simulated minutes the rig runs (about 219 K flows).
pub const SIM_MINUTES: u64 = 10;
/// Host pairs, as `WeatherConfig::default()`.
pub const HOST_PAIRS: usize = 8;
/// Offered payload utilization, as `WeatherConfig::default()`.
pub const UTILIZATION: f64 = 0.4;

const WINDOW: SimDuration = SimDuration::from_secs(60);
const WARMUP: SimDuration = SimDuration::from_secs(120);
const REAP_GRACE: SimDuration = SimDuration::from_secs(180);
const FINAL_GRACE: SimDuration = SimDuration::from_secs(60);
const AMPLITUDE: f64 = 0.3;
const PERIOD: SimDuration = SimDuration::from_secs(24 * 3600);

/// The weather size mix, (payload bytes, weight per 1000): a copy of the
/// private table in `scenarios::weather`, pinned to it by a test on the mean.
pub const FLOW_MIX: [(u64, usize); 4] = [(600, 600), (2_000, 300), (6_000, 90), (40_000, 10)];

fn sample_bytes(rng: &mut SimRng) -> u64 {
    let roll = rng.index(1000);
    let mut acc = 0;
    for &(bytes, weight) in &FLOW_MIX {
        acc += weight;
        if roll < acc {
            return bytes;
        }
    }
    FLOW_MIX[FLOW_MIX.len() - 1].0
}

/// Run the rig once with `protocol` on every flow.
pub fn run(protocol: Protocol, seed: u64, shim: Shim) -> RigRun {
    single_threaded(shim, |run| simulate(protocol, seed, shim, run))
}

fn simulate(protocol: Protocol, seed: u64, shim: Shim, run: &mut RigRun) {
    let RigRun {
        net: counts,
        flows,
        reaped,
        ..
    } = run;
    let build = trace::enter(Span::Build);
    let mut spec = DumbbellSpec::emulab(1);
    spec.n_left = HOST_PAIRS;
    spec.n_right = HOST_PAIRS;
    let mut sim = TransportSim::new(seed);
    let net = build_dumbbell(&mut sim, &spec, |_, _| shim.host());
    let bus = completion_bus();
    for i in 0..HOST_PAIRS {
        let (h, e) = (net.left_hosts[i], net.left_egress[i]);
        sim.with_node_mut::<Host, _>(h, |host, _| {
            host.wire(h, e);
            host.set_retain_records(false);
            host.set_bus(bus.clone());
        })
        .expect("a shimmed host still downcasts to Host");
        let (h, e) = (net.right_hosts[i], net.right_egress[i]);
        sim.with_node_mut::<Host, _>(h, |host, _| host.wire(h, e));
    }
    let cache = path_cache();
    let root = SimRng::new(seed).fork("weather");
    let mean = interarrival_for_utilization(
        spec.bottleneck_rate,
        scenarios::weather::mean_flow_bytes(),
        UTILIZATION,
    );
    let mut arrivals = DiurnalPoisson::new(
        mean,
        AMPLITUDE,
        PERIOD,
        SimTime::ZERO,
        root.fork("arrivals"),
    );
    let mut size_rng = root.fork("sizes");
    trace::exit(build);

    let mut sketch = WindowedSketch::new(WINDOW.as_nanos(), WARMUP.as_nanos());
    let mut drain = |flows: &mut FlowCounts, window_fct: &mut LogHistogram| {
        let mut q = bus.borrow_mut();
        while let Some(rec) = q.pop_front() {
            if rec.outcome.is_completed() {
                let ms = rec.fct.as_millis_f64();
                window_fct.add(ms);
                sketch.add(rec.done_at.as_nanos(), ms);
            }
            flows.add_record(&rec);
        }
    };

    let end = SimTime::ZERO + SimDuration::from_secs(SIM_MINUTES * 60);
    for w in 0..SIM_MINUTES {
        let window = trace::enter(Span::Window);
        let wend = SimTime::ZERO + SimDuration::from_nanos(WINDOW.as_nanos() * (w + 1));
        let mut window_fct = LogHistogram::new();
        while arrivals.peek() <= wend {
            let (at, bytes) = trace::within(Span::Arrival, || {
                (arrivals.pop(), sample_bytes(&mut size_rng))
            });
            trace::within(Span::RunUntil, || sim.run_until(at));
            counts.sample_pending(&sim);
            let pair = flows.started as usize % HOST_PAIRS;
            let (src, dst) = (net.left_hosts[pair], net.right_hosts[pair]);
            flows.started += 1;
            let flow = FlowId(flows.started);
            trace::within(Span::StartFlow, || {
                let strategy = shim.strategy(protocol, &cache, (src, dst));
                sim.with_node_mut::<Host, _>(src, |h, core| {
                    h.start_flow(core, flow, dst, bytes, strategy)
                });
            });
        }
        trace::within(Span::RunUntil, || sim.run_until(wend));
        trace::within(Span::Drain, || drain(flows, &mut window_fct));
        if wend.as_nanos() > REAP_GRACE.as_nanos() {
            let before = SimTime::from_nanos(wend.as_nanos() - REAP_GRACE.as_nanos());
            trace::within(Span::Reap, || {
                for &h in net.left_hosts.iter().chain(&net.right_hosts) {
                    *reaped += sim
                        .with_node_mut::<Host, _>(h, |host, _| host.reap_receivers(before))
                        .unwrap_or(0) as u64;
                }
            });
        }
        // The per-window census `run_weather` writes to `windows.csv`.
        let active: usize = net
            .left_hosts
            .iter()
            .map(|&h| sim.node_as::<Host>(h).map_or(0, Host::active_senders))
            .sum();
        let live: usize = net
            .right_hosts
            .iter()
            .map(|&h| sim.node_as::<Host>(h).map_or(0, |x| x.receivers().count()))
            .sum();
        std::hint::black_box((active, live, window_fct.quantile(99.0)));
        trace::exit(window);
    }

    let finish = trace::enter(Span::Finish);
    trace::within(Span::RunUntil, || sim.run_until(end + FINAL_GRACE));
    trace::within(Span::Drain, || drain(flows, &mut LogHistogram::new()));
    std::hint::black_box(sketch.aggregate().quantile(99.0));
    counts.add_sim(&sim, &[]);
    trace::exit(finish);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_mix_is_the_weather_mix() {
        let total: u64 = FLOW_MIX.iter().map(|&(b, w)| b * w as u64).sum();
        assert_eq!(
            total as f64 / 1000.0,
            scenarios::weather::mean_flow_bytes(),
            "FLOW_MIX drifted from scenarios::weather"
        );
        assert_eq!(FLOW_MIX.iter().map(|m| m.1).sum::<usize>(), 1000);
    }
}
