//! The one runner every simulation of a figure goes through, and `repro
//! simcheck`, a deterministic invariant fuzzer with case shrinking.
//!
//! A [`CaseSpec`] is a [`Topology`] — a chain, a two-host path, the Emulab
//! dumbbell or a parking lot — plus fault events on its bottleneck links
//! and flows on its endpoint pairs (`case.rs`, with the battery's
//! generator). [`run_case`] builds it into a [`Rig`], starts the flows,
//! advances under the job watchdog and judges the run (`rig.rs`) with every
//! entry of [`ORACLES`], the one table of invariants (`oracle.rs`, where
//! each entry says what it catches).
//!
//! `repro chaos` and `repro trace` describe their chains as hand-written
//! cases, and every figure its dumbbell, path or parking lot: [`run_figure`]
//! fails a figure's job on the first violation with `oracle <kind>:
//! <detail>`. Fig. 16 starts flows from inside the run, so it drives the
//! same [`Rig`] directly; so does `repro weather`, which checkpoints it with
//! [`Rig::save`] and [`Rig::restore`] and judges it with [`Rig::audit`] at
//! every window close.
//!
//! The battery (`battery.rs`) draws random 1–3 hop chains: rates, delays,
//! buffers (sometimes below one MTU), loss models, fault events and flows
//! of every evaluated scheme. A failing case is shrunk and reported with a
//! one-line `repro simcheck --seed … --case …` command and a merged
//! flight-recorder trace.

mod battery;
mod case;
mod oracle;
mod rig;

pub use self::{battery::*, case::*, oracle::*, rig::*};

#[cfg(test)]
mod tests {
    use super::oracle::{fct_floor_ns, judge, rto_excess};
    use super::rig::{build, Leg};
    use super::*;
    use crate::harness::{self, RunCtx};
    use crate::protocols::Protocol;
    use netsim::link::LinkStats;
    use netsim::loss::LossModel;
    use netsim::queue::QueueStats;
    use netsim::rng::SimRng;
    use netsim::snap::{SnapReader, SnapWriter};
    use netsim::topology::{DumbbellSpec, ParkingLotSpec, PathSpec};
    use netsim::{FaultSpec, FlowId, LinkId, Node, Packet, Rate, SimDuration, SimTime};
    use transport::{FlowOutcome, FlowRecord, Header, Host, TransportSim, MAX_RTO_RETRIES};

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = generate_case(7, 3);
        let b = generate_case(7, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Different ids diverge.
        let c = generate_case(7, 4);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        // The generator covers multi-hop, faulted, and sub-MTU shapes.
        let specs: Vec<CaseSpec> = (0..64).map(|id| generate_case(7, id)).collect();
        assert!(specs.iter().any(|s| s.topology.hop_count() > 1));
        assert!(specs.iter().any(|s| !s.faults.is_empty()));
        assert!(specs.iter().any(|s| matches!(&s.topology,
            Topology::Chain(hops) if hops.iter().any(|h| h.buffer_bytes < 1500))));
        assert!(specs.iter().any(|s| s.flows.len() > 1));
    }

    #[test]
    fn run_case_is_deterministic() {
        let spec = generate_case(11, 2);
        let sel = Selection::full(&spec);
        let a = run_case(&spec, &sel, true);
        let b = run_case(&spec, &sel, true);
        assert_eq!(a.streams.merged_jsonl(), b.streams.merged_jsonl());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    /// The bottlenecks' link and queue stats at the cut.
    type AtCut = Vec<(LinkStats, QueueStats)>;

    /// [`run_case`] killed at `cut`: there the rig is saved and dropped, and
    /// a fresh build restored from the saved bytes alone runs the rest of
    /// the schedule.
    fn run_killed(spec: &CaseSpec, sel: &Selection, cut: SimTime) -> (Rig, CaseReport, AtCut) {
        let mut rig = Rig::new(spec, sel, false);
        let mut at_cut = None;
        let mut advance = |rig: &mut Rig, until: SimTime| {
            if at_cut.is_none() && cut <= until {
                rig.run_until(cut);
                let stats = |&l| (rig.sim.link_stats(l), rig.sim.queue_stats(l));
                at_cut = Some(rig.net.bottlenecks.iter().map(stats).collect());
                let mut w = SnapWriter::new();
                rig.save(&mut w);
                let saved = w.into_bytes();
                let mut r = SnapReader::new(&saved);
                let protocol_of = |flow: FlowId| spec.flows[flow.0 as usize - 1].protocol;
                *rig = Rig::restore(spec, sel, &mut r, protocol_of).unwrap();
                assert_eq!(r.remaining(), 0, "the restore left bytes unread");
            }
            rig.run_until(until);
        };
        let mut last = SimTime::ZERO;
        for &fi in &sel.flows {
            let f = &spec.flows[fi];
            let at = SimTime::ZERO + SimDuration::from_nanos(f.at_ns);
            advance(&mut rig, at);
            rig.start(FlowId(fi as u64 + 1), f.pair, f.bytes, f.protocol);
            last = at;
        }
        advance(&mut rig, last + spec.horizon);
        let report = rig.finish();
        (
            rig,
            report,
            at_cut.expect("the cut falls before the deadline"),
        )
    }

    /// A seeded instant in `[from, to]`.
    fn seeded_cut(salt: u64, from: SimTime, to: SimTime) -> SimTime {
        let span = to.saturating_since(from).as_nanos();
        let offset = SimRng::new(salt).fork("cut").next_u64() % (span + 1);
        from + SimDuration::from_nanos(offset)
    }

    /// A seeded instant between `from` and the last terminal flow of
    /// `report`.
    fn cut_before_last_done(salt: u64, from: SimTime, report: &CaseReport) -> SimTime {
        let last = report.records.iter().map(|r| r.done_at).max();
        seeded_cut(salt, from, last.unwrap_or(from))
    }

    /// Run `spec` whole, and again killed at `cut(whole report)` and
    /// resumed: the reports (violations, counts, records, bottleneck
    /// `LinkStats`, queue drops, link losses) and the event counts must
    /// be equal. Returns the whole run's report and the stats at the cut.
    fn assert_resume_matches(
        spec: &CaseSpec,
        cut: impl FnOnce(&CaseReport) -> SimTime,
    ) -> (CaseReport, AtCut) {
        let sel = Selection::full(spec);
        let mut whole = Rig::new(spec, &sel, false);
        whole.play();
        let want = whole.finish();
        let cut = cut(&want);
        let (resumed, got, at_cut) = run_killed(spec, &sel, cut);
        let what = format!("case {}/{} cut at {cut}", spec.seed, spec.id);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        let events = |rig: &Rig| rig.sim.events_processed();
        assert_eq!(events(&resumed), events(&whole), "{what}");
        (want, at_cut)
    }

    fn flow(at_ms: u64, bytes: u64, protocol: Protocol, pair: usize) -> FlowSpec {
        FlowSpec {
            at_ns: at_ms * 1_000_000,
            bytes,
            protocol,
            pair,
        }
    }

    #[test]
    fn resumed_runs_match_uninterrupted_runs() {
        let ms = |x: u64| SimTime::ZERO + SimDuration::from_millis(x);
        for id in 0..DEFAULT_CASES {
            let spec = generate_case(42, id);
            let first = SimTime::ZERO + SimDuration::from_nanos(spec.flows[0].at_ns);
            assert_resume_matches(&spec, |r| cut_before_last_done(id, first, r));
        }

        // Every fault kind across a cut at 1.5 s: the down and blackhole
        // windows span it, and a rate and a delay step fall on each side.
        let faults = [
            FaultKind::Down {
                start_ms: 1_400,
                dur_ms: 200,
            },
            FaultKind::Blackhole {
                start_ms: 1_450,
                dur_ms: 150,
            },
            FaultKind::Reorder {
                prob: 0.1,
                max_extra_us: 2_000,
            },
            FaultKind::Duplicate { prob: 0.05 },
            FaultKind::Corrupt { prob: 0.02 },
            FaultKind::RateStep {
                at_ms: 1_000,
                mbps: 5,
            },
            FaultKind::RateStep {
                at_ms: 2_000,
                mbps: 20,
            },
            FaultKind::DelayStep {
                at_ms: 1_200,
                ms: 10,
            },
            FaultKind::DelayStep {
                at_ms: 1_800,
                ms: 30,
            },
        ];
        let flows = Protocol::EVALUATED
            .iter()
            .enumerate()
            .map(|(i, &p)| flow(200 * i as u64, 250_000, p, 0))
            .collect();
        let mut hop = HopSpec::clean(10, 20);
        hop.buffer_bytes = 100_000;
        let spec = CaseSpec::one_hop(3, hop, &faults, flows, SimDuration::from_secs(500));
        let (whole, at_cut) = assert_resume_matches(&spec, |_| ms(1_500));
        let (before, after) = (&at_cut[0].0, &whole.bottlenecks[0]);
        let counters =
            |s: &LinkStats| [s.down_dropped, s.blackholed, s.corrupt_marked, s.duplicated];
        for (i, (b, a)) in counters(before)
            .into_iter()
            .zip(counters(after))
            .enumerate()
        {
            assert!(
                b < a,
                "fault counter {i} did not move after the cut: {b} -> {a}"
            );
        }
        assert!(counters(before)[2..].iter().all(|&n| n > 0));

        // The aqm figure's CoDel dumbbell: the slow-start overshoot of four
        // background flows keeps CoDel in its dropping state from ~0.5 s to
        // ~1.25 s, and the cut falls inside that while the shorts, all
        // eight schemes, are in flight.
        let mut dumbbell = DumbbellSpec::emulab_with_buffer(8, 600_000);
        dumbbell.bottleneck_codel = true;
        let background = (0..4).map(|i| flow(100 * i, 4_000_000, Protocol::Tcp, i as usize));
        let shorts = Protocol::EVALUATED
            .iter()
            .enumerate()
            .map(|(i, &p)| flow(400 + 50 * i as u64, 100_000, p, 4 + i % 4));
        let flows = background.chain(shorts).collect();
        let horizon = SimDuration::from_secs(60);
        let spec = CaseSpec::new(89, Topology::Dumbbell(dumbbell), flows, horizon);
        let (_, at_cut) = assert_resume_matches(&spec, |_| seeded_cut(1, ms(700), ms(1_100)));
        assert!(at_cut[0].1.dropped > 0, "CoDel had not dropped by the cut");

        // A parking lot with through and cross traffic on every pair.
        let lot = ParkingLotSpec::emulab_like(3);
        let pairs = lot.n_through + lot.hops * lot.n_cross_per_hop;
        let flows = (0..pairs)
            .map(|p| flow(50 * p as u64, 200_000, Protocol::EVALUATED[p % 8], p))
            .collect();
        let spec = CaseSpec::new(5, Topology::ParkingLot(lot), flows, horizon);
        assert_resume_matches(&spec, |r| cut_before_last_done(2, SimTime::ZERO, r));

        // A path with its own fault steps, on both sides of any cut.
        let mut path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(60));
        path.faults = FaultSpec::none()
            .rate_step(ms(300), Rate::from_mbps(4))
            .delay_step(ms(600), SimDuration::from_millis(10))
            .rate_step(ms(1_500), Rate::from_mbps(30));
        let flows = (0..4)
            .map(|i| flow(400 * i, 300_000, Protocol::EVALUATED[2 * i as usize], 0))
            .collect();
        let spec = CaseSpec::new(6, Topology::Path(path), flows, horizon);
        assert_resume_matches(&spec, |r| cut_before_last_done(3, SimTime::ZERO, r));

        // Weather's shape: its 8-pair dumbbell under Poisson arrivals of
        // its flow mix at 40 % payload load, every scheme in rotation, cut
        // while arrivals still stream in.
        let dumbbell = DumbbellSpec::emulab(8);
        let mean = workload::interarrival_for_utilization(
            dumbbell.bottleneck_rate,
            crate::weather::mean_flow_bytes(),
            0.4,
        );
        let mut rng = SimRng::new(8).fork("weather-shaped");
        let mut arrivals = workload::PoissonArrivals::new(mean, SimTime::ZERO, rng.fork("at"));
        let flows = (0..400)
            .map(|i| FlowSpec {
                at_ns: arrivals.pop().as_nanos(),
                bytes: crate::weather::mix_bytes(&mut rng),
                protocol: Protocol::EVALUATED[(i + i / 8) % 8],
                pair: i % 8,
            })
            .collect::<Vec<_>>();
        let (first, last) = (flows[0].at_ns, flows[399].at_ns);
        let at = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let spec = CaseSpec::new(9, Topology::Dumbbell(dumbbell), flows, horizon);
        let (whole, _) = assert_resume_matches(&spec, |_| seeded_cut(4, at(first), at(last)));
        assert_eq!(whole.completed, 400);
    }

    /// The route of `pair` in `topology`, as the rig builds it.
    fn route_of(topology: &Topology, pair: usize) -> Vec<Leg> {
        let mut sim = TransportSim::new(0);
        let host = || -> Box<dyn Node<Header>> { Box::new(Host::new()) };
        let mut net = build(&mut sim, topology, topology.hop_count(), host);
        net.routes.swap_remove(pair)
    }

    /// Every shape but the chain, each with an endpoint pair and that
    /// pair's base round trip, read off the spec rather than the route.
    fn shapes() -> Vec<(Topology, usize, SimDuration)> {
        let path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(50));
        let dumbbell = DumbbellSpec::emulab(2);
        let lot = ParkingLotSpec::emulab_like(3);
        let access = ParkingLotSpec::ACCESS_DELAY * 2;
        vec![
            (Topology::Path(path), 0, SimDuration::from_millis(50)),
            (Topology::Dumbbell(dumbbell.clone()), 1, dumbbell.base_rtt()),
            // A through pair crosses all three hops, hop 0's first cross
            // pair only the first.
            (
                Topology::ParkingLot(lot.clone()),
                0,
                (access + lot.hop_delay * 3) * 2,
            ),
            (
                Topology::ParkingLot(lot.clone()),
                lot.n_through,
                (access + lot.hop_delay) * 2,
            ),
        ]
    }

    /// One flow from t = 0 on `pair`.
    fn one_flow(topology: Topology, pair: usize, protocol: Protocol, bytes: u64) -> CaseSpec {
        let mut case = CaseSpec::single(7, topology, protocol, bytes, SimDuration::from_secs(60));
        case.flows[0].pair = pair;
        case
    }

    /// A fault that changes nothing a 60 s run sees.
    fn idle_fault(hop: usize) -> FaultEvent {
        let kind = FaultKind::Down {
            start_ms: 100_000 + hop as u64,
            dur_ms: 1,
        };
        FaultEvent { hop, kind }
    }

    /// Hop 0 down for good. A SYN gives up only after ~63 s of backoff, so
    /// under a 10 s horizon every flow is still running at the deadline:
    /// the terminal oracle fires on a real run, no hook needed.
    fn down_for_good() -> FaultEvent {
        let kind = FaultKind::Down {
            start_ms: 0,
            dur_ms: 1_000_000,
        };
        FaultEvent { hop: 0, kind }
    }

    /// Two TCP flows on `pair` of `topology`, hop 0 down for good plus two
    /// idle faults, and a 10 s horizon.
    fn planted(topology: Topology, pair: usize) -> CaseSpec {
        let mut case = one_flow(topology, pair, Protocol::Tcp, 50_000);
        case.flows.push(case.flows[0]);
        case.flows[1].at_ns = 1_000_000_000;
        case.faults = vec![down_for_good(), idle_fault(0), idle_fault(1)];
        case.horizon = SimDuration::from_secs(10);
        case
    }

    #[test]
    fn a_planted_failure_fires_and_shrinks_on_every_shape_and_fails_a_figure_job() {
        let chain = Topology::Chain(vec![HopSpec::clean(10, 20); 2]);
        for (topology, pair) in [(chain, 0)]
            .into_iter()
            .chain(shapes().into_iter().map(|(t, p, _)| (t, p)))
        {
            let case = planted(topology, pair);
            let sel = Selection::full(&case);
            let report = run_case(&case, &sel, false);
            let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
            assert_eq!(kinds, ["terminal"], "{:?}", case.topology);
            let shrunk = shrink_case(&case, sel, "terminal");
            assert_eq!(
                (shrunk.flows.len(), shrunk.faults.as_slice(), shrunk.hops),
                (1, &[0][..], 1)
            );

            // In a figure's job the violation fails the whole map.
            let ctx = RunCtx::new(crate::Scale::Quick);
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                harness::parallel_map(&ctx, vec![case], |_| "broken".into(), |c| run_figure(&c))
            }));
            let message = *failed.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains("oracle terminal: 2 flow(s)"), "{message}");
        }
    }

    #[test]
    fn floor_sits_between_two_base_rtts_and_a_clean_halfback_flow() {
        for (topology, pair, base_rtt) in shapes() {
            let floor = fct_floor_ns(&route_of(&topology, pair), &[], 1, 100_000);
            assert!(
                floor >= 2.0 * base_rtt.as_nanos() as f64,
                "{topology:?}: {floor}"
            );
            let report = run_figure(&one_flow(topology, pair, Protocol::Halfback, 100_000));
            let fct = report.completed_records()[0].fct.as_nanos() as f64;
            assert!(
                floor <= fct,
                "floor {floor} ns above a clean Halfback flow's {fct} ns"
            );
        }
    }

    #[test]
    fn a_stranded_short_flow_is_terminal_and_a_long_one_censored() {
        // A blackhole over the whole run strands a 100 KB flow; its floor
        // fits many times over before the deadline.
        let path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(50));
        let mut case = one_flow(Topology::Path(path), 0, Protocol::Tcp, 100_000);
        case.horizon = SimDuration::from_secs(30);
        let kind = FaultKind::Blackhole {
            start_ms: 0,
            dur_ms: 100_000,
        };
        case.faults = vec![FaultEvent { hop: 0, kind }];
        let report = run_case(&case, &Selection::full(&case), false);
        assert_eq!(report.censored, 0);
        assert!(
            report.violations.iter().any(|v| v.kind == "terminal"),
            "{:?}",
            report.violations
        );

        // 2 GB at 15 Mbps needs over 1,000 s: still running at a 60 s
        // deadline is censored, and the undrained run still balances.
        let topology = Topology::Dumbbell(DumbbellSpec::emulab(1));
        let report = run_figure(&one_flow(topology, 0, Protocol::Tcp, 2_000_000_000));
        assert_eq!((report.censored, report.completed), (1, 0));
    }

    #[test]
    fn oracles_pass_on_a_small_sample() {
        for id in 0..6 {
            let spec = generate_case(42, id);
            let sel = Selection::full(&spec);
            let report = run_case(&spec, &sel, false);
            assert!(
                report.violations.is_empty(),
                "case {id} violated: {:?}",
                report.violations
            );
            assert!(report.completed + report.aborted >= 1);
        }
    }

    /// The two findings of seeds 1–48 × 5,000 cases: a pristine chain's
    /// one PCP flow of 1 MB over a 50 Mbps hop, whose probe trains could
    /// not read that bottleneck, overshot it, and needed an RTO.
    #[test]
    fn pcp_past_a_50_mbps_hop_needs_no_rto() {
        for (seed, id) in [(16, 1951), (40, 3849)] {
            let spec = generate_case(seed, id);
            let report = run_case(&spec, &Selection::full(&spec), false);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
        }
    }

    #[test]
    fn rto_bound_scales_with_the_flow() {
        // About 680 segments behind 1,846 queue drops: 69 RTOs, every one
        // at backoff level 0 and each retransmitting a later segment.
        let spec = generate_case(107, 313);
        let report = run_case(&spec, &Selection::full(&spec), false);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        let record = |bytes, rto_events| FlowRecord {
            flow: FlowId(9),
            protocol: "TCP",
            bytes,
            start: SimTime::ZERO,
            established_at: SimTime::ZERO,
            done_at: SimTime::ZERO,
            fct: SimDuration::ZERO,
            counters: transport::Counters {
                rto_events,
                ..Default::default()
            },
            min_rtt: None,
            outcome: FlowOutcome::Completed,
        };
        let per_segment = MAX_RTO_RETRIES as u64 + 1;
        assert!(rto_excess(&record(1_000_000, 69)).is_none());
        assert!(rto_excess(&record(10 * transport::MSS as u64, 10 * per_segment)).is_none());
        let over = rto_excess(&record(10 * transport::MSS as u64, 10 * per_segment + 1))
            .expect("one RTO more than ten segments allow");
        assert!(over.contains("RTO events, more than"), "{over}");
        // The flat bound this replaces let a two-segment flow time out 64
        // times.
        assert!(rto_excess(&record(2 * transport::MSS as u64, 64)).is_some());
    }

    #[test]
    fn fct_floor_uses_best_case_fault_steps() {
        let hops = vec![HopSpec {
            rate_mbps: 1,
            delay_ms: 50,
            buffer_bytes: 200_000,
            loss: LossModel::None,
        }];
        let route = &route_of(&Topology::Chain(hops), 0);
        let base = fct_floor_ns(route, &[], 1, 10_000);
        // A rate step up to 50 Mbps makes the best case much faster…
        let step = FaultEvent {
            hop: 0,
            kind: FaultKind::RateStep {
                at_ms: 10,
                mbps: 50,
            },
        };
        let with_step = fct_floor_ns(route, std::slice::from_ref(&step), 1, 10_000);
        assert!(with_step < base);
        // …and a delay step down shrinks the floor further.
        let dstep = FaultEvent {
            hop: 0,
            kind: FaultKind::DelayStep { at_ms: 10, ms: 1 },
        };
        let both = fct_floor_ns(route, &[step, dstep], 1, 10_000);
        assert!(both < with_step);
    }

    /// One TCP flow of 100 KB on a one-hop chain: not pristine (its buffer
    /// is one BDP, 50 KB), so only the unconditional oracles apply.
    fn plain() -> CaseSpec {
        let flow = FlowSpec {
            at_ns: 0,
            bytes: 100_000,
            protocol: Protocol::Tcp,
            pair: 0,
        };
        let horizon = SimDuration::from_secs(60);
        CaseSpec::one_hop(3, HopSpec::clean(10, 20), &[], vec![flow], horizon)
    }

    /// One 20 KB Halfback flow on a pristine one-hop chain (50 Mbps, 50 ms,
    /// a 625 KB buffer), short enough for the differential.
    fn pristine() -> CaseSpec {
        let chain = Topology::Chain(vec![HopSpec::clean(50, 50)]);
        CaseSpec::single(
            3,
            chain,
            Protocol::Halfback,
            20_000,
            SimDuration::from_secs(60),
        )
    }

    /// Run `case` and finish it clean, corrupt the finished rig and report
    /// with `corrupt`, and judge them again with every oracle: the kinds
    /// that fire.
    fn fired_after(
        case: CaseSpec,
        corrupt: impl FnOnce(&mut Rig, &mut CaseReport),
    ) -> Vec<&'static str> {
        let mut rig = Rig::new(&case, &Selection::full(&case), false);
        rig.play();
        let mut report = rig.finish();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        corrupt(&mut rig, &mut report);
        judge(&rig, &mut report, |_| true);
        report.violations.iter().map(|v| v.kind).collect()
    }

    /// An oracle's kind, and a run that must fire exactly it.
    type Mutation = (&'static str, fn() -> Vec<&'static str>);

    /// One mutation per oracle, at least: a hand case and one corruption
    /// that must fire exactly that oracle.
    const MUTATIONS: &[Mutation] = &[
        ("terminal", || {
            let case = planted(Topology::Chain(vec![HopSpec::clean(10, 20)]), 0);
            let report = run_case(&case, &Selection::full(&case), false);
            report.violations.iter().map(|v| v.kind).collect()
        }),
        // A flow started after the drain owns a timer and a busy link.
        ("drain", || {
            fired_after(plain(), |rig, _| {
                rig.start(FlowId(99), 0, 10_000, Protocol::Tcp);
            })
        }),
        // A packet the sender's ingress link delivers but never carried.
        ("conservation", || {
            fired_after(plain(), |rig, _| {
                let (sender, receiver) = rig.pairs()[0];
                let ack = Header::SynAck { window: 0 };
                let pkt = Packet::new(FlowId(99), receiver, sender, 40, ack);
                // Link 1 is the chain's reverse link, into the sender.
                let now = rig.sim.now();
                rig.sim.core().inject_arrival(now, sender, LinkId(1), pkt);
                rig.sim.run_to_completion(10);
            })
        }),
        ("transport", || {
            fired_after(plain(), |rig, _| {
                let receiver = rig.pairs()[0].1;
                rig.sim.node_as_mut::<Host>(receiver).unwrap().stray_packets += 1;
            })
        }),
        ("rto-sanity", || {
            fired_after(plain(), |_, report| {
                report.records[0].counters.rto_events = 1_000;
            })
        }),
        ("rto-sanity", || {
            fired_after(pristine(), |_, report| {
                report.records[0].counters.rto_events = 1;
            })
        }),
        // The sender claims more bytes than the receiver completed.
        ("delivery", || {
            fired_after(plain(), |_, report| report.records[0].bytes += 1_000)
        }),
        ("delivery", || {
            fired_after(pristine(), |_, report| {
                report.records[0].outcome =
                    FlowOutcome::Aborted(transport::AbortReason::MaxRetransmits);
            })
        }),
        ("fct-bound", || {
            fired_after(plain(), |_, report| {
                report.records[0].fct = SimDuration::from_millis(1);
            })
        }),
        // The reference runs see a hop that loses every packet.
        ("differential", || {
            fired_after(pristine(), |rig, _| {
                if let Topology::Chain(hops) = &mut rig.spec.topology {
                    hops[0].loss = LossModel::Bernoulli { p: 1.0 };
                }
            })
        }),
    ];

    #[test]
    fn every_oracle_has_a_mutation() {
        for oracle in ORACLES {
            assert!(
                MUTATIONS.iter().any(|&(kind, _)| kind == oracle.kind),
                "oracle {} has no mutation in MUTATIONS",
                oracle.kind
            );
        }
    }

    #[test]
    fn each_mutation_fires_exactly_its_oracle() {
        for &(kind, mutate) in MUTATIONS {
            let fired = mutate();
            assert!(
                !fired.is_empty() && fired.iter().all(|&k| k == kind),
                "{kind} mutation fired {fired:?}"
            );
        }
    }

    /// A generated case with at least two faults, three flows and two hops
    /// — a meaty target for the shrinker — with hop 0 down for good and a
    /// 30 s horizon: a SYN gives up only after ~63 s, so every flow is
    /// still running at the deadline and the terminal oracle fires.
    fn meaty_planted_case(seed: u64) -> CaseSpec {
        let mut spec = (0..500)
            .map(|id| generate_case(seed, id))
            .find(|s| s.faults.len() >= 2 && s.flows.len() >= 3 && s.topology.hop_count() >= 2)
            .expect("500 cases must contain a meaty one");
        spec.faults.push(down_for_good());
        spec.horizon = SimDuration::from_secs(30);
        spec
    }

    /// The shrinker must reduce a known violation to a minimal
    /// deterministic selection: the planted outage needs one flow and its
    /// one fault, so the fixed point is exactly (1 flow, the outage, 1 hop).
    #[test]
    fn shrinker_minimizes_a_seeded_violation() {
        let spec = meaty_planted_case(1234);
        let sel = Selection::full(&spec);
        let report = run_case(&spec, &sel, false);
        let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, ["terminal"]);

        let shrunk = shrink_case(&spec, sel.clone(), "terminal");
        let outage = spec.faults.len() - 1;
        assert_eq!(
            (shrunk.flows.len(), shrunk.faults.as_slice(), shrunk.hops),
            (1, &[outage][..], 1)
        );
        // Shrinking is deterministic: a second pass lands on the same point.
        assert_eq!(shrunk, shrink_case(&spec, sel, "terminal"));
        // The shrunk case still reproduces the verdict, and its emitted
        // command names the kept pieces.
        let re = run_case(&spec, &shrunk, false);
        assert!(re.violations.iter().any(|v| v.kind == "terminal"));
        let cmd = repro_command(&spec, &shrunk);
        assert!(cmd.contains("--keep-flows"), "unexpected command: {cmd}");
        assert!(cmd.contains("--keep-faults"), "unexpected command: {cmd}");
    }

    /// Re-running the shrunk selection (what the printed `--keep-*` flags
    /// encode) reproduces the same oracle verdict via `run_single`.
    #[test]
    fn shrunk_command_reproduces_the_verdict() {
        let spec = meaty_planted_case(99);
        let shrunk = shrink_case(&spec, Selection::full(&spec), "terminal");
        let out = run_single(&spec, &shrunk);
        assert!(!out.ok());
        assert!(out.line().contains("FAILED [terminal]"), "{}", out.line());
        assert!(!out.trace.as_deref().unwrap_or_default().is_empty());
        let again = run_single(&spec, &shrunk);
        assert_eq!(out.line(), again.line());
        assert_eq!(out.trace, again.trace);
    }

    #[test]
    fn repro_command_round_trips() {
        let spec = generate_case(5, 0);
        let full = Selection::full(&spec);
        assert_eq!(
            repro_command(&spec, &full),
            "repro simcheck --seed 5 --case 0"
        );
        let sel = Selection {
            flows: vec![],
            faults: full.faults.clone(),
            hops: 1,
        };
        let cmd = repro_command(&spec, &sel);
        assert!(cmd.contains("--keep-flows none"), "{cmd}");
        if spec.topology.hop_count() > 1 {
            assert!(cmd.contains("--keep-hops 1"), "{cmd}");
        }
    }
}
