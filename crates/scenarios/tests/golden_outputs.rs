//! Byte-identity regression tests against committed golden outputs.
//!
//! The committed fixtures under `tests/golden/` were rendered by the
//! original `BinaryHeap`-based engine at quick scale. Determinism is part
//! of the simulator's performance contract: any event-queue, transport, or
//! harness optimization must reproduce these trees byte for byte at the
//! same seeds. A legitimate behaviour change (new metric, model fix) must
//! regenerate the fixtures *in the same commit* and say so.
//!
//! Regenerate with:
//!   cargo run --release --bin repro -- fig6  --scale quick --jobs 1 \
//!       --out crates/scenarios/tests/golden/fig6
//!   cargo run --release --bin repro -- chaos --scale quick --jobs 1 \
//!       --out crates/scenarios/tests/golden/chaos
//!   cargo run --release --bin repro -- planetlab100k --scale quick \
//!       --out crates/scenarios/tests/golden/planetlab100k
//!   cargo run --release --bin repro -- fig15 --scale quick --jobs 1 \
//!       --out crates/scenarios/tests/golden/fig15
//! and delete the `manifest.json` each writes: the fixtures are exactly
//! the CSV/summary/gnuplot set the test renders.

use scenarios::figures::run_experiment;
use scenarios::harness::RunCtx;
use scenarios::Scale;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir(experiment: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(experiment)
}

fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

fn assert_matches_golden(experiment: &str) {
    let dir = std::env::temp_dir().join(format!(
        "halfback-golden-{experiment}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let mut ctx = RunCtx::new(Scale::Quick);
    ctx.jobs = 1;
    let figs = run_experiment(experiment, &ctx).expect("known experiment");
    for fig in &figs {
        fig.write_csv(&dir).unwrap();
        fig.write_gnuplot(&dir).unwrap();
    }

    let golden = snapshot(&golden_dir(experiment));
    let fresh = snapshot(&dir);
    assert!(!golden.is_empty(), "no golden fixtures for {experiment}");
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        fresh.keys().collect::<Vec<_>>(),
        "{experiment}: file set differs from committed goldens"
    );
    for (name, want) in &golden {
        let got = &fresh[name];
        assert_eq!(
            got, want,
            "{experiment}/{name} differs from the committed golden \
             (determinism regression, or an intentional change that must \
             regenerate the fixtures)"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fig6_quick_is_byte_identical_to_golden() {
    assert_matches_golden("fig6");
}

#[test]
fn chaos_quick_is_byte_identical_to_golden() {
    assert_matches_golden("chaos");
}

/// The only fixture that pins `planetlab100k`'s summary lines: the
/// `flows_*` counters and the FCT sketch line.
#[test]
fn planetlab100k_quick_is_byte_identical_to_golden() {
    assert_matches_golden("planetlab100k");
}

/// The only fixture that pins Fig. 15's throughput traces: the four panels'
/// 60 ms bins, binned from the receivers' flight recorders.
#[test]
fn fig15_quick_is_byte_identical_to_golden() {
    assert_matches_golden("fig15");
}

/// The flight-recorder export of the default trace spec (Halfback, fig6
/// path, seed 42) against committed fixtures. Regenerate with:
///   cargo run --release --bin repro -- trace \
///       --out crates/scenarios/tests/golden/trace
#[test]
fn default_trace_is_byte_identical_to_golden() {
    let out = scenarios::trace::run_trace(&scenarios::trace::TraceSpec::default())
        .expect("default trace spec is valid");
    let golden = snapshot(&golden_dir("trace"));
    assert!(!golden.is_empty(), "no golden trace fixtures");
    assert_eq!(
        out.jsonl.as_bytes(),
        golden["trace.jsonl"].as_slice(),
        "trace.jsonl differs from the committed golden (determinism \
         regression, or an intentional change that must regenerate it)"
    );
    assert_eq!(
        out.timeseq_csv.as_bytes(),
        golden["trace_timeseq.csv"].as_slice(),
        "trace_timeseq.csv differs from the committed golden"
    );
}
