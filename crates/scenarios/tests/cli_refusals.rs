//! The `repro` command line refuses values it cannot run with before it
//! prints a banner or creates an output directory, with a message naming
//! the flag — never a panic further in.

use std::path::Path;
use std::process::{Command, Output};

/// `repro <args> --out <out>`.
fn repro(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("repro starts")
}

fn weather(out: &Path, flags: &[&str]) -> Output {
    repro(out, &[&["weather", "--minutes", "1"], flags].concat())
}

/// The refusal contract: exit code 2, a message naming the flag, nothing
/// on stdout, no banner, no output directory.
fn assert_refused(out: &Path, run: &Output, names: &str, what: &[&str]) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{what:?}: {stderr}");
    assert!(stderr.contains(names), "{what:?}: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains(">>"),
        "{what:?} got past the command line: {stderr}"
    );
    assert!(
        run.stdout.is_empty() && !out.exists(),
        "{what:?} left output behind"
    );
}

#[test]
fn weather_refuses_out_of_range_flags_before_any_output() {
    let out = std::env::temp_dir().join(format!("repro-refusals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let refused = |flags: &[&str], names: &str| {
        assert_refused(&out, &weather(&out, flags), names, flags);
    };
    // 500 % used to reach an `assert!` in `workload::arrivals` (exit 101).
    for value in ["5", "1.5000001", "0", "-0.4", "nan", "inf", "forty"] {
        refused(
            &["--utilization", value],
            "--utilization needs a fraction in (0, 1.5]",
        );
    }
    refused(&["--window", "0"], "--window needs");
    // Durations the simulated clock cannot hold: `inf` used to panic in
    // `SimDuration::from_secs_f64` (exit 101), 1e300 minutes saturated to
    // 584 years and ran forever, and 2e10 whole seconds wrapped.
    refused(&["--hours", "inf"], "--hours needs");
    refused(&["--minutes", "inf"], "--minutes needs");
    refused(&["--period-hours", "inf"], "--period-hours needs");
    refused(&["--minutes", "1e300"], "--minutes needs");
    refused(&["--window", "20000000000"], "--window needs");
    refused(&["--warmup", "20000000000"], "--warmup needs");
    refused(&["--amplitude", "7"], "--amplitude needs");
    refused(&["--pairs", "0"], "--pairs needs");
    // Weather runs one simulation inline: it has no worker pool to size.
    refused(&["--jobs", "2"], "unknown weather flag '--jobs'");
    refused(&["--bogus"], "unknown weather flag '--bogus'");
}

#[test]
fn every_subcommand_refuses_with_exit_code_2() {
    let out = std::env::temp_dir().join(format!("repro-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    for (args, names) in [
        (&["trace", "--flow", "0"][..], "--flow needs"),
        (
            &["trace", "--protocol", "Carrier-Pigeon"],
            "--protocol needs",
        ),
        (&["trace", "--bogus"], "unknown trace flag '--bogus'"),
        (&["simcheck", "--cases", "0"], "--cases needs"),
        (&["simcheck", "--keep-flows", "1,x"], "--keep-flows needs"),
        (&["simcheck", "--bogus"], "unknown simcheck flag '--bogus'"),
        (&["fig3", "--quick", "--jobs", "0"], "--jobs needs"),
        (&["fig3", "--scale", "medium"], "--scale needs"),
        (&["fig3", "--quick", "--bogus"], "unknown flag '--bogus'"),
        // After a good id: nothing of fig3 may run first.
        (&["fig3", "fig99", "--quick"], "unknown experiment 'fig99'"),
        // Checked before the banner, not when the run builds its path.
        (&["trace", "--figure", "bogus"], "--figure needs"),
        // A path flag whose operand is another flag lost its operand: it
        // does not name a directory called `--resume` or `--chart`.
        (&["weather", "--out", "--resume"], "--out needs"),
        (&["fig3", "--quick", "--out", "--chart"], "--out needs"),
        (&["trace", "--out", "--flow"], "--out needs"),
        (
            &["simcheck", "--case", "1", "--out", "--seed"],
            "--out needs",
        ),
        (
            &["fig3", "--quick", "--telemetry", "--out", "x"],
            "--telemetry needs",
        ),
    ] {
        assert_refused(&out, &repro(&out, args), names, args);
    }
    // A flag that lost its operand, and no arguments at all.
    let bare = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts")
    };
    let args = ["weather", "--utilization"];
    assert_refused(&out, &bare(&args), "--utilization needs", &args);
    assert_refused(&out, &bare(&[]), "usage: repro", &[]);
}

#[test]
fn weather_runs_at_the_overload_limit() {
    let out = std::env::temp_dir().join(format!("repro-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = weather(&out, &["--minutes", "0.02", "--utilization", "1.5"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(out.join("weather.json").is_file());
    std::fs::remove_dir_all(&out).expect("scratch directory removed");
}
