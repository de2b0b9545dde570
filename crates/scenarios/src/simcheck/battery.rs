//! The battery: random cases run through every oracle, each failing one
//! *shrunk* — flows, then fault events, then hops are greedily dropped
//! while the violation reproduces — and reported with a one-line `repro
//! simcheck --seed … --case …` command and a merged flight-recorder trace.
//! Everything is a pure function of `(seed, case id)`, so a battery renders
//! byte-identically for any `--jobs N`.

use super::{generate_case, run_case, CaseSpec, Selection, Violation};
use crate::harness::{self, Job, RunCtx};
use std::fmt::Write as _;

/// Default battery size; `simcheck_batteries_are_byte_identical_across_worker_counts`
/// runs exactly this many cases at seed 42.
pub const DEFAULT_CASES: u64 = 200;

/// Per-case watchdog caps. A failing case re-runs while shrinking (a few
/// dozen trials at ~500 virtual seconds each), so the virtual-time cap is
/// sized for a full shrink, not a single run; the event cap is what
/// actually catches livelocked simulations.
const CASE_VIRTUAL_CAP_NS: u64 = 40_000 * 1_000_000_000;
const CASE_EVENT_CAP: u64 = 200_000_000;

/// Greedily shrink `sel` while a violation of `kind` still reproduces:
/// flows (highest index first), then fault events, then hops, repeated to
/// a fixed point. Every trial is a full deterministic re-run, so the
/// result is a pure function of `(spec, sel, kind)`.
pub fn shrink_case(spec: &CaseSpec, mut sel: Selection, kind: &'static str) -> Selection {
    let reproduces = |s: &Selection| {
        let report = run_case(spec, s, false);
        report.violations.iter().any(|v| v.kind == kind)
    };
    let parts: [fn(&mut Selection) -> &mut Vec<usize>; 2] = [|s| &mut s.flows, |s| &mut s.faults];
    loop {
        let mut changed = false;
        for part in parts {
            for i in (0..part(&mut sel).len()).rev() {
                let mut cand = sel.clone();
                part(&mut cand).remove(i);
                if reproduces(&cand) {
                    sel = cand;
                    changed = true;
                }
            }
        }
        while sel.hops > 1 {
            let cand = Selection {
                hops: sel.hops - 1,
                ..sel.clone()
            };
            if !reproduces(&cand) {
                break;
            }
            sel = cand;
            changed = true;
        }
        if !changed {
            return sel;
        }
    }
}

fn fmt_indices(xs: &[usize]) -> String {
    if xs.is_empty() {
        return "none".to_string();
    }
    xs.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The one-line reproduction command for a (possibly shrunk) case. Keep
/// flags are omitted when the selection is the full spec.
pub fn repro_command(spec: &CaseSpec, sel: &Selection) -> String {
    let mut cmd = format!("repro simcheck --seed {} --case {}", spec.seed, spec.id);
    if sel.flows.len() != spec.flows.len() {
        let _ = write!(cmd, " --keep-flows {}", fmt_indices(&sel.flows));
    }
    if sel.faults.len() != spec.faults.len() {
        let _ = write!(cmd, " --keep-faults {}", fmt_indices(&sel.faults));
    }
    if sel.hops != spec.topology.hop_count() {
        let _ = write!(cmd, " --keep-hops {}", sel.hops);
    }
    cmd
}

/// Outcome of one case, in a render-ready form: a battery's, or a single
/// run's (`repro simcheck --case N`).
#[derive(Debug, Default)]
pub struct CaseSummary {
    /// Case index.
    pub id: u64,
    /// First violation's oracle kind (None = case passed).
    pub kind: Option<&'static str>,
    /// First violation's detail (empty when passed).
    pub detail: String,
    /// Reproduction command for the shrunk case (battery failures only).
    pub command: Option<String>,
    /// Flight-recorder trace: of the shrunk failing case in a battery, of
    /// the run itself for a single run.
    pub trace: Option<String>,
    /// Flows completed / aborted on the case as run.
    pub completed: usize,
    /// See `completed`.
    pub aborted: usize,
}

impl CaseSummary {
    /// Did every oracle pass?
    pub fn ok(&self) -> bool {
        self.kind.is_none()
    }

    /// The verdict line: `case N: ok (…)` or `case N: FAILED [kind] …`.
    pub fn line(&self) -> String {
        match self.kind {
            None => format!(
                "case {}: ok ({} completed, {} gave up)",
                self.id, self.completed, self.aborted
            ),
            Some(kind) => format!("case {}: FAILED [{kind}] {}", self.id, self.detail),
        }
    }
}

/// A full battery run.
#[derive(Debug)]
pub struct Battery {
    /// Battery seed.
    pub seed: u64,
    /// Per-case outcomes, in case order.
    pub cases: Vec<CaseSummary>,
}

impl Battery {
    /// Cases that failed an oracle (including watchdog trips and panics).
    pub fn failures(&self) -> usize {
        self.cases.iter().filter(|c| !c.ok()).count()
    }

    /// Watchdog trips alone (livelocked cases killed by the caps).
    pub fn watchdog_trips(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.kind == Some("watchdog"))
            .count()
    }

    /// Deterministic text summary. The final `invariant violations:` /
    /// `watchdog trips:` lines mirror the chaos sweep's and are what
    /// `hbbench`'s `tiny_sims` workload checks.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let n = self.cases.len();
        let ok = self.cases.iter().filter(|c| c.ok()).count();
        let completed: usize = self.cases.iter().map(|c| c.completed).sum();
        let aborted: usize = self.cases.iter().map(|c| c.aborted).sum();
        let _ = writeln!(
            out,
            "== simcheck — seed {}, {} randomized cases",
            self.seed, n
        );
        let _ = writeln!(
            out,
            "   * {ok}/{n} cases ok; flows: {completed} completed, {aborted} gave up"
        );
        for c in self.cases.iter().filter(|c| !c.ok()) {
            let _ = writeln!(out, "{}", c.line());
            if let Some(cmd) = &c.command {
                let _ = writeln!(out, "   repro: {cmd}");
            }
        }
        let trips = self.watchdog_trips();
        let _ = writeln!(out, "invariant violations: {}", self.failures() - trips);
        let _ = writeln!(out, "watchdog trips: {trips}");
        out
    }
}

/// The battery's job body for one case: run it whole and, on a violation,
/// shrink it against the first violation's kind, run the shrunk case with
/// the flight recorder on, and keep its repro command and trace.
pub fn summarize(spec: &CaseSpec) -> CaseSummary {
    let sel = Selection::full(spec);
    let report = run_case(spec, &sel, false);
    let mut summary = CaseSummary {
        id: spec.id,
        completed: report.completed,
        aborted: report.aborted,
        ..CaseSummary::default()
    };
    if let Some(first) = report.violations.first() {
        let kind = first.kind;
        let shrunk = shrink_case(spec, sel, kind);
        let traced = run_case(spec, &shrunk, true);
        let v = traced.violations.iter().find(|v| v.kind == kind);
        summary.kind = Some(kind);
        summary.detail = v.unwrap_or(first).detail.clone();
        summary.command = Some(repro_command(spec, &shrunk));
        summary.trace = Some(traced.streams.merged_jsonl().0);
    }
    summary
}

/// Run `n_cases` cases on `ctx`'s worker pool. The returned battery (and
/// its rendered text) is byte-identical for any worker count.
pub fn run_battery(ctx: &RunCtx, seed: u64, n_cases: u64) -> Battery {
    let jobs = (0..n_cases)
        .map(|id| {
            Job::new(format!("case{id:04}"), move || {
                summarize(&generate_case(seed, id))
            })
            .with_caps(CASE_VIRTUAL_CAP_NS, CASE_EVENT_CAP)
        })
        .collect();
    let results = harness::run_jobs(ctx, jobs).into_iter().zip(0..);
    let cases = results
        .map(|(r, id)| {
            r.unwrap_or_else(|p| {
                let v = Violation::from_panic(p);
                CaseSummary {
                    id,
                    kind: Some(v.kind),
                    detail: v.detail,
                    command: Some(format!("repro simcheck --seed {seed} --case {id}")),
                    ..CaseSummary::default()
                }
            })
        })
        .collect();
    Battery { seed, cases }
}

/// Run one case under a selection (the `--keep-*` flags of an emitted
/// repro command) with the flight recorder on. Re-running a shrunk command
/// reproduces the battery's verdict exactly: both are the same pure
/// `(spec, selection)` run.
pub fn run_single(spec: &CaseSpec, sel: &Selection) -> CaseSummary {
    let report = run_case(spec, sel, true);
    let first = report.violations.first();
    CaseSummary {
        id: spec.id,
        kind: first.map(|v| v.kind),
        detail: first.map(|v| v.detail.clone()).unwrap_or_default(),
        trace: Some(report.streams.merged_jsonl().0),
        completed: report.completed,
        aborted: report.aborted,
        ..CaseSummary::default()
    }
}
