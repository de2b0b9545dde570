//! Robustness sweep (`repro chaos`): every scheme against a battery of
//! deterministic fault scenarios on a single path — link flapping,
//! blackhole windows, a permanent blackout, heavy reordering, duplication,
//! corruption, and mid-run bandwidth/delay steps.
//!
//! Each cell runs `n_flows` sequential 150 KB transfers as a hand-written
//! one-hop [`simcheck`](crate::simcheck) case, so [`run_case`] builds, runs,
//! drains and judges it against the same oracle battery as a random case:
//! every flow terminal, per-link packet conservation, a clean drain, live
//! transport invariants, delivery, the FCT floor and RTO sanity. A cell
//! that fires an oracle (or trips the per-job watchdog) is reported as a
//! `FAILED [oracle]` row, so one pathological (scenario, scheme) pair
//! cannot hide the rest of the table. The totals line `invariant
//! violations: 0` is pinned by the chaos golden.

use crate::harness::{run_jobs, Job, JobPanic, RunCtx};
use crate::report::Figure;
use crate::simcheck::{
    run_case, CaseReport, CaseSpec, FaultKind, FlowSpec, HopSpec, Selection, Violation,
};
use crate::Protocol;
use netsim::loss::LossModel;
use netsim::stats::Ecdf;
use netsim::SimDuration;

/// Payload of every chaos flow: a "short flow" big enough to straddle
/// fault windows (150 KB ≈ 100 segments, ~120 ms clean FCT at 10 Mbps).
const FLOW_BYTES: u64 = 150_000;
/// Gap between sequential flow arrivals.
const SPACING_MS: u64 = 2_000;
/// Watchdog: virtual-time cap per cell (far above the ~290 s a healthy
/// cell needs; a livelocked cell fails alone instead of hanging `repro`).
const CELL_VIRTUAL_CAP_NS: u64 = 1_800 * 1_000_000_000;
/// Watchdog: event-count cap per cell.
const CELL_EVENT_CAP: u64 = 50_000_000;

/// One fault scenario: a name for the table plus the path perturbation.
pub struct Scenario {
    /// Row label.
    pub name: &'static str,
    /// Random loss on the data direction (kitchen-sink only).
    pub loss: LossModel,
    /// Fault events on the data-direction link.
    pub faults: Vec<FaultKind>,
}

/// 100 ms outages every `every_ms`, the first at `first_ms`, starting
/// before `until_ms`.
pub(crate) fn flapping(first_ms: u64, every_ms: u64, until_ms: u64) -> Vec<FaultKind> {
    (first_ms..until_ms)
        .step_by(every_ms as usize)
        .map(|start_ms| FaultKind::Down {
            start_ms,
            dur_ms: 100,
        })
        .collect()
}

/// The scenario battery. `span_ms` is the arrival span of the flows, so
/// periodic faults cover every arrival at whatever scale runs.
pub fn scenarios(span_ms: u64) -> Vec<Scenario> {
    let scenario = |name, faults| Scenario {
        name,
        loss: LossModel::None,
        faults,
    };
    // The kitchen sink's sparser flap, combined with everything else.
    let mut sink = flapping(900, 2_900, span_ms + 2_000);
    sink.extend([
        FaultKind::Reorder {
            prob: 0.3,
            max_extra_us: 20_000,
        },
        FaultKind::Duplicate { prob: 0.1 },
        FaultKind::Corrupt { prob: 0.02 },
        FaultKind::RateStep {
            at_ms: 5_000,
            mbps: 2,
        },
    ]);
    vec![
        scenario("baseline", vec![]),
        // Flows hit the flap at varying phases.
        scenario("flap", flapping(300, 700, span_ms + 2_000)),
        scenario(
            "blackhole",
            vec![FaultKind::Blackhole {
                start_ms: 3_000,
                dur_ms: 3_000,
            }],
        ),
        // The link goes down at 2 s and never comes back: the first flow
        // completes, every later flow must give up (SYN timeout).
        scenario(
            "blackout",
            vec![FaultKind::Down {
                start_ms: 2_000,
                dur_ms: 9_998_000,
            }],
        ),
        scenario(
            "reorder",
            vec![FaultKind::Reorder {
                prob: 0.5,
                max_extra_us: 30_000,
            }],
        ),
        scenario("duplicate", vec![FaultKind::Duplicate { prob: 0.3 }]),
        scenario("corrupt", vec![FaultKind::Corrupt { prob: 0.1 }]),
        // 10 -> 1 Mbps between 3 s and 9 s.
        scenario(
            "rate-step",
            vec![
                FaultKind::RateStep {
                    at_ms: 3_000,
                    mbps: 1,
                },
                FaultKind::RateStep {
                    at_ms: 9_000,
                    mbps: 10,
                },
            ],
        ),
        // One-way delay 20 -> 100 ms between 3 s and 9 s.
        scenario(
            "delay-step",
            vec![
                FaultKind::DelayStep {
                    at_ms: 3_000,
                    ms: 100,
                },
                FaultKind::DelayStep {
                    at_ms: 9_000,
                    ms: 20,
                },
            ],
        ),
        Scenario {
            name: "kitchen-sink",
            loss: LossModel::Bernoulli { p: 0.02 },
            faults: sink,
        },
    ]
}

/// One (scenario, protocol) cell as a simcheck case: `n_flows` transfers
/// `SPACING_MS` apart over a 10 Mbps hop with 20 ms each way.
pub fn cell_case(sc: &Scenario, protocol: Protocol, n_flows: usize, seed: u64) -> CaseSpec {
    let hop = HopSpec {
        loss: sc.loss.clone(),
        ..HopSpec::clean(10, 20)
    };
    let flows = (0..n_flows as u64)
        .map(|i| FlowSpec {
            at_ns: i * SPACING_MS * 1_000_000,
            bytes: FLOW_BYTES,
            protocol,
            pair: 0,
        })
        .collect();
    // The horizon must cover the slowest give-up (~63 s of exponential RTO
    // backoff before `MaxRetransmits`).
    CaseSpec::one_hop(seed, hop, &sc.faults, flows, SimDuration::from_secs(240))
}

/// Run one cell through the oracle battery.
pub fn run_cell(sc: &Scenario, protocol: Protocol, n_flows: usize, seed: u64) -> CaseReport {
    let case = cell_case(sc, protocol, n_flows, seed);
    run_case(&case, &Selection::full(&case), false)
}

/// Mean FCT over a cell's completed flows (NaN when none completed).
fn mean_fct_ms(c: &CaseReport) -> f64 {
    let fcts: Vec<f64> = c
        .records
        .iter()
        .filter(|r| r.outcome.is_completed())
        .map(|r| r.fct.as_nanos() as f64 / 1e6)
        .collect();
    if fcts.is_empty() {
        f64::NAN
    } else {
        fcts.iter().sum::<f64>() / fcts.len() as f64
    }
}

/// Render the chaos survival table.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let n_flows = ctx.scale.pick(24, 8);
    let scens = scenarios((n_flows as u64 - 1) * SPACING_MS);

    // One harness job per cell, under the watchdog: a livelocked cell
    // panics through the isolation path instead of hanging the sweep.
    let mut jobs = Vec::new();
    for (si, sc) in scens.iter().enumerate() {
        for p in Protocol::EVALUATED {
            jobs.push(
                Job::new(format!("chaos/{}/{}", sc.name, p.name()), move || {
                    run_cell(sc, p, n_flows, 0xC4A0_5EED + si as u64)
                })
                .with_caps(CELL_VIRTUAL_CAP_NS, CELL_EVENT_CAP),
            );
        }
    }
    vec![render(&scens, n_flows, run_jobs(ctx, jobs))]
}

/// The table over `results`, one per (scenario, protocol) cell in
/// scenario-major order.
fn render(
    scens: &[Scenario],
    n_flows: usize,
    results: Vec<Result<CaseReport, JobPanic>>,
) -> Figure {
    let protos = Protocol::EVALUATED;
    // A cell that fired an oracle fails like one that panicked.
    let cells: Vec<Result<CaseReport, Violation>> = results
        .into_iter()
        .map(|r| match r {
            Ok(c) => match c.violations.first().cloned() {
                None => Ok(c),
                Some(v) => Err(v),
            },
            Err(p) => Err(Violation::from_panic(p)),
        })
        .collect();

    let mut fig = Figure::new(
        "chaos",
        "Robustness: survival and FCT degradation under injected faults",
        "fault scenario index",
        "flows completed (%)",
    );
    for (si, sc) in scens.iter().enumerate() {
        fig.note(format!("S{si} = {}", sc.name));
    }
    // Per-protocol baseline FCT (scenario 0) for the degradation column.
    let base: Vec<f64> = (0..protos.len())
        .map(|pi| cells[pi].as_ref().map_or(f64::NAN, mean_fct_ms))
        .collect();
    let mut violations = 0usize;
    let mut watchdog_trips = 0usize;
    for (si, sc) in scens.iter().enumerate() {
        for (pi, p) in protos.iter().enumerate() {
            match &cells[si * protos.len() + pi] {
                Ok(c) => {
                    let mean = mean_fct_ms(c);
                    let fct = if mean.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{mean:.1} ms")
                    };
                    let degr = if mean.is_nan() || base[pi].is_nan() || base[pi] <= 0.0 {
                        "n/a".to_string()
                    } else {
                        format!("{:.2}x baseline", mean / base[pi])
                    };
                    fig.note(format!(
                        "{:>12}/{:<9} {:>2}/{} completed, {:>2} aborted, mean FCT {fct} ({degr})",
                        sc.name,
                        p.name(),
                        c.completed,
                        n_flows,
                        c.aborted,
                    ));
                }
                Err(v) => {
                    violations += 1;
                    if v.kind == "watchdog" {
                        watchdog_trips += 1;
                    }
                    fig.note(format!(
                        "{:>12}/{:<9} FAILED [{}] {}",
                        sc.name,
                        p.name(),
                        v.kind,
                        v.detail
                    ));
                }
            }
        }
    }
    for (pi, p) in protos.iter().enumerate() {
        let pts: Vec<(f64, f64)> = (0..scens.len())
            .map(|si| {
                let y = match &cells[si * protos.len() + pi] {
                    Ok(c) => 100.0 * c.completed as f64 / n_flows as f64,
                    Err(_) => 0.0,
                };
                (si as f64, y)
            })
            .collect();
        fig.push_series(p.name(), pts);
    }
    fig.note(format!("invariant violations: {violations}"));
    fig.note(format!("watchdog trips: {watchdog_trips}"));
    // Totals over the cells that passed, summed in submission order (the
    // order `run_jobs` returns results), so they are identical for any
    // --jobs N.
    let ok: Vec<&CaseReport> = cells.iter().flatten().collect();
    if !ok.is_empty() {
        let per_flow = |f: fn(&transport::Counters) -> u64| -> u64 {
            ok.iter()
                .flat_map(|c| &c.records)
                .map(|r| f(&r.counters))
                .sum()
        };
        for (name, sum) in [
            ("data_packets", per_flow(|c| c.data_packets_sent)),
            ("link.lost", ok.iter().map(|c| c.link_lost).sum()),
            ("link.queue_drops", ok.iter().map(|c| c.queue_drops).sum()),
            ("retx.normal", per_flow(|c| c.normal_retx)),
            ("retx.proactive", per_flow(|c| c.proactive_retx)),
            ("rto.fires", per_flow(|c| c.rto_events)),
        ] {
            fig.note(format!("chaos.{name} = {sum}"));
        }
    }
    let means = Ecdf::from_samples(ok.iter().map(|c| mean_fct_ms(c)).collect());
    if let (Some(mean), Some(p50), Some(p99)) =
        (means.mean(), means.median(), means.percentile(99.0))
    {
        fig.note(format!(
            "chaos.fct_ms: n={} mean={mean:.2} p50={p50:.2} p99={p99:.2}",
            means.len()
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cell_all_complete() {
        let scens = scenarios(14_000);
        let c = run_cell(&scens[0], Protocol::Halfback, 4, 7);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        assert_eq!((c.completed, c.aborted), (4, 0));
        let mean = mean_fct_ms(&c);
        assert!(mean > 0.0 && mean < 1_000.0);
    }

    #[test]
    fn blackout_forces_aborts_not_hangs() {
        let scens = scenarios(14_000);
        let blackout = scens.iter().find(|s| s.name == "blackout").unwrap();
        let c = run_cell(blackout, Protocol::Tcp, 4, 7);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        // The pre-blackout flow completes; everyone after gives up.
        assert_eq!(c.completed, 1, "only the first flow beats the blackout");
        assert_eq!(c.aborted, 3, "later flows must abort, not hang");
    }

    #[test]
    fn corruption_degrades_but_flows_survive() {
        let scens = scenarios(14_000);
        let corrupt = scens.iter().find(|s| s.name == "corrupt").unwrap();
        let base = mean_fct_ms(&run_cell(&scens[0], Protocol::Halfback, 4, 7));
        let c = run_cell(corrupt, Protocol::Halfback, 4, 7);
        assert_eq!(c.completed, 4, "10% corruption must not kill flows");
        let mean = mean_fct_ms(&c);
        assert!(
            mean > base,
            "corruption should cost time: {mean:.1} vs {base:.1} ms"
        );
    }

    #[test]
    fn chaos_figure_reports_zero_violations() {
        let figs = figures(&RunCtx::new(crate::Scale::Quick));
        assert_eq!(figs.len(), 1);
        let f = &figs[0];
        assert_eq!(f.series.len(), Protocol::EVALUATED.len());
        assert!(
            f.summary.iter().any(|l| l == "invariant violations: 0"),
            "summary: {:#?}",
            f.summary
        );
        assert!(f.summary.iter().any(|l| l == "watchdog trips: 0"));
        // Baseline row: every scheme completes every flow.
        for s in &f.series {
            assert_eq!(s.points[0], (0.0, 100.0), "{}: baseline survival", s.label);
        }
    }

    /// A verdict of the shared battery reaches the chaos table: one cell
    /// with a fault carries the deliberate conservation break and must
    /// render as its oracle's FAILED row, counted once.
    #[test]
    fn chaos_reports_a_shared_oracle_verdict() {
        let n_flows = 2;
        let scens = &scenarios(SPACING_MS)[..2];
        assert_eq!(scens[1].name, "flap");
        let results = scens
            .iter()
            .flat_map(|sc| Protocol::EVALUATED.map(|p| cell_case(sc, p, n_flows, 7)))
            .enumerate()
            .map(|(cell, mut case)| {
                // The flap scenario's first protocol.
                case.break_conservation = cell == Protocol::EVALUATED.len();
                Ok(run_case(&case, &Selection::full(&case), false))
            })
            .collect();
        let fig = render(scens, n_flows, results);
        let failed: Vec<&String> = fig
            .summary
            .iter()
            .filter(|l| l.contains("FAILED"))
            .collect();
        assert_eq!(failed.len(), 1, "{:#?}", fig.summary);
        let row = format!(
            "flap/{:<9} FAILED [conservation] deliberate",
            Protocol::EVALUATED[0].name()
        );
        assert!(failed[0].contains(&row), "{}", failed[0]);
        assert!(fig.summary.iter().any(|l| l == "invariant violations: 1"));
        assert!(fig.summary.iter().any(|l| l == "watchdog trips: 0"));
        assert_eq!(fig.series[0].points[1], (1.0, 0.0));
    }
}
