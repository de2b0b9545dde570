//! Fig. 16: average web-page response time vs utilization (§4.4).
//!
//! A client requests random pages from the synthetic corpus; the server
//! sends each page's objects in order over at most 6 concurrent
//! connections (one flow per object). Response time = all objects
//! delivered. Page arrivals are Poisson, targeted at the desired offered
//! utilization.

use crate::harness::RunCtx;
use crate::report::Figure;
use crate::simcheck::{CaseSpec, Rig, Selection, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{FlowId, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use transport::host::completion_bus;
use transport::Host;
use workload::arrivals::flow_offered_wire_bytes;
use workload::{Corpus, PoissonArrivals, MAX_CONCURRENT_CONNECTIONS};

struct PageState {
    started: SimTime,
    pending: VecDeque<u64>,
    in_flight: usize,
    pair: usize,
    /// The HTML document must complete before subresources are discovered
    /// and requested (Chrome behaviour; also staggers the connections).
    html_done: bool,
}

/// Result of one (protocol, utilization) web run.
#[derive(Debug, Clone)]
pub struct WebRun {
    /// Response time per completed page, ms.
    pub response_ms: Vec<f64>,
    /// Pages started but unfinished at the end.
    pub censored: usize,
    /// Object flows completed.
    pub objects: usize,
    /// Object flows that suffered at least one RTO.
    pub rto_objects: usize,
}

impl WebRun {
    /// Mean response time.
    pub fn mean_ms(&self) -> f64 {
        if self.response_ms.is_empty() {
            return f64::NAN;
        }
        self.response_ms.iter().sum::<f64>() / self.response_ms.len() as f64
    }

    /// Completion rate.
    pub fn completion_rate(&self) -> f64 {
        let total = self.response_ms.len() + self.censored;
        if total == 0 {
            1.0
        } else {
            self.response_ms.len() as f64 / total as f64
        }
    }
}

/// Drive the web workload for one scheme at one utilization.
pub fn run_web(protocol: Protocol, utilization: f64, scale: Scale) -> WebRun {
    const PAIRS: usize = 8;
    let spec = DumbbellSpec::emulab(PAIRS);
    let rate = spec.bottleneck_rate;
    let grace = SimDuration::from_secs(40);
    let case = CaseSpec::new(79, Topology::Dumbbell(spec), Vec::new(), grace);
    let mut rig = Rig::new(&case, &Selection::full(&case), false);
    let bus = completion_bus();
    for (h, _) in rig.pairs().to_vec() {
        rig.sim
            .with_node_mut::<Host, _>(h, |host, _| host.set_bus(bus.clone()));
    }

    let corpus = Corpus::synthesize(100, 71);
    // Offered bytes per page include per-object handshake+header overhead.
    let mean_page_wire: f64 = corpus
        .pages
        .iter()
        .map(|p| {
            p.objects
                .iter()
                .map(|&b| flow_offered_wire_bytes(b) as f64)
                .sum::<f64>()
        })
        .sum::<f64>()
        / corpus.len() as f64;
    let pages_per_sec = utilization * rate.as_bps() as f64 / (8.0 * mean_page_wire);
    let mean_gap = SimDuration::from_secs_f64(1.0 / pages_per_sec);

    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(150), SimDuration::from_secs(30));
    let mut rng = SimRng::new(79).fork_indexed("web", (utilization * 1000.0) as u64);
    let mut arrivals = PoissonArrivals::new(mean_gap, SimTime::ZERO, rng.fork("arrivals"));

    let mut pages: Vec<PageState> = Vec::new();
    let mut flow_page: HashMap<FlowId, usize> = HashMap::new();
    let mut response_ms: Vec<f64> = Vec::new();
    let mut objects = 0usize;
    let mut rto_objects = 0usize;
    let mut next_pair = 0usize;
    let mut next_flow = 0u64;
    // Each object is one flow, numbered in start order from 1.
    let mut start = |rig: &mut Rig, pair: usize, bytes: u64| {
        next_flow += 1;
        rig.start(FlowId(next_flow), pair, bytes, protocol);
        FlowId(next_flow)
    };
    let hard_stop = horizon + grace;

    loop {
        let arrival = (arrivals.peek() <= horizon).then(|| arrivals.peek());
        // Past the last arrival an empty queue ends the run, with the clock
        // at the last event: `finish` credits the job with it.
        if arrival.is_none() && rig.sim.pending_events() == 0 {
            break;
        }
        // One event, or the clock moved to the next arrival (or the hard
        // stop) with nothing due before it.
        let reached = rig.sim.run_until_budget(arrival.unwrap_or(hard_stop), 1);
        // React to completed objects.
        let done: Vec<_> = bus.borrow_mut().drain(..).collect();
        for rec in done {
            objects += 1;
            if rec.counters.rto_events > 0 {
                rto_objects += 1;
            }
            if let Some(idx) = flow_page.remove(&rec.flow) {
                let now = rig.sim.now();
                let pair = pages[idx].pair;
                pages[idx].in_flight -= 1;
                if !pages[idx].html_done {
                    // HTML arrived: subresources discovered, open up to
                    // the browser's connection limit.
                    pages[idx].html_done = true;
                    while pages[idx].in_flight < MAX_CONCURRENT_CONNECTIONS {
                        match pages[idx].pending.pop_front() {
                            Some(bytes) => {
                                let f = start(&mut rig, pair, bytes);
                                flow_page.insert(f, idx);
                                pages[idx].in_flight += 1;
                            }
                            None => break,
                        }
                    }
                } else if let Some(bytes) = pages[idx].pending.pop_front() {
                    let f = start(&mut rig, pair, bytes);
                    flow_page.insert(f, idx);
                    pages[idx].in_flight += 1;
                }
                if pages[idx].in_flight == 0 && pages[idx].pending.is_empty() {
                    response_ms.push(now.saturating_since(pages[idx].started).as_millis_f64());
                }
            }
        }
        if !reached {
            continue;
        }
        let Some(at) = arrival else {
            break;
        };
        // Start a page.
        arrivals.pop();
        let page = corpus.pick(&mut rng).clone();
        let pair = next_pair % PAIRS;
        next_pair += 1;
        let idx = pages.len();
        let mut st = PageState {
            started: at,
            pending: page.objects.iter().copied().collect(),
            in_flight: 0,
            pair,
            html_done: false,
        };
        // Fetch the HTML document first; subresources are requested once it
        // arrives.
        if let Some(html_bytes) = st.pending.pop_front() {
            let f = start(&mut rig, pair, html_bytes);
            flow_page.insert(f, idx);
            st.in_flight = 1;
        }
        pages.push(st);
    }

    rig.finish().judged();
    let censored = pages.len() - response_ms.len();
    WebRun {
        response_ms,
        censored,
        objects,
        rto_objects,
    }
}

/// Utilizations scanned (paper x-axis: 10–60 %).
pub fn utilizations(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (2..=12).map(|i| i as f64 * 0.05).collect(),
        Scale::Quick => vec![0.1, 0.3, 0.5],
    }
}

/// The Fig. 16 protocol set.
pub fn protocols() -> [Protocol; 4] {
    [
        Protocol::JumpStart,
        Protocol::Halfback,
        Protocol::Tcp,
        Protocol::Tcp10,
    ]
}

/// Render Fig. 16.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let mut fig = Figure::new(
        "fig16",
        "Average web response time vs utilization (synthetic top-100 corpus)",
        "utilization (%)",
        "response time (ms)",
    );
    let utils = utilizations(scale);
    // One harness job per (protocol, utilization) web run.
    let grid: Vec<(Protocol, f64)> = protocols()
        .into_iter()
        .flat_map(|p| utils.iter().map(move |&u| (p, u)))
        .collect();
    let runs = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, u)| format!("fig16/{}/u{:.0}", p.name(), u * 100.0),
        |(p, u)| run_web(p, u, scale),
    );
    let mut at30: Vec<(Protocol, f64)> = Vec::new();
    for (pi, p) in protocols().into_iter().enumerate() {
        let pts: Vec<(f64, f64, f64)> = utils
            .iter()
            .zip(&runs[pi * utils.len()..(pi + 1) * utils.len()])
            .map(|(&u, r)| (u * 100.0, r.mean_ms(), r.completion_rate()))
            .collect();
        if let Some(&(_, m, _)) = pts.iter().find(|&&(u, _, _)| (u - 30.0).abs() < 1.0) {
            at30.push((p, m));
        }
        let collapse = pts.iter().find(|&&(_, _, c)| c < 0.9).map(|&(u, _, _)| u);
        match collapse {
            Some(u) => fig.note(format!(
                "{}: page completion collapses at {u:.0}% utilization",
                p.name()
            )),
            None => fig.note(format!(
                "{}: no page-completion collapse in scanned range",
                p.name()
            )),
        }
        fig.push_series(p.name(), pts.into_iter().map(|(u, m, _)| (u, m)).collect());
    }
    let get = |p: Protocol| at30.iter().find(|(q, _)| *q == p).map(|(_, m)| *m);
    if let (Some(hb), Some(js)) = (get(Protocol::Halfback), get(Protocol::JumpStart)) {
        fig.note(format!(
            "at 30% utilization: JumpStart {:.0} ms vs Halfback {:.0} ms ({:+.0} ms; paper: +592 ms, 27%)",
            js,
            hb,
            js - hb
        ));
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn web_run_produces_pages_at_light_load() {
        let r = run_web(Protocol::Tcp, 0.1, Scale::Quick);
        assert!(
            r.response_ms.len() >= 3,
            "pages completed: {}",
            r.response_ms.len()
        );
        assert!(
            r.completion_rate() > 0.8,
            "completion {}",
            r.completion_rate()
        );
        // A page is several RTTs at least.
        assert!(r.response_ms.iter().all(|&ms| ms > 120.0));
        let _ = metrics::FctStats::from_records(&[], 0);
    }

    #[test]
    fn halfback_beats_tcp_pages_at_light_load() {
        let hb = run_web(Protocol::Halfback, 0.1, Scale::Quick);
        let tcp = run_web(Protocol::Tcp, 0.1, Scale::Quick);
        assert!(
            hb.mean_ms() < tcp.mean_ms(),
            "Halfback pages {}ms vs TCP {}ms",
            hb.mean_ms(),
            tcp.mean_ms()
        );
    }

    #[test]
    fn web_run_deterministic() {
        let a = run_web(Protocol::Halfback, 0.2, Scale::Quick);
        let b = run_web(Protocol::Halfback, 0.2, Scale::Quick);
        assert_eq!(a.response_ms, b.response_ms);
    }
}
