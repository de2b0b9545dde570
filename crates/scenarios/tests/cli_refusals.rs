//! The `repro` command line refuses values it cannot run with before it
//! prints a banner or creates an output directory, with a message naming
//! the flag — never a panic further in.

use std::path::PathBuf;
use std::process::{Command, Output};

fn weather(out: &PathBuf, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("weather")
        .args(["--minutes", "1", "--out"])
        .arg(out)
        .args(flags)
        .output()
        .expect("repro starts")
}

#[test]
fn weather_refuses_out_of_range_flags_before_any_output() {
    let out = std::env::temp_dir().join(format!("repro-refusals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let refused = |flags: &[&str], names: &str| {
        let run = weather(&out, flags);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{flags:?} was accepted");
        assert!(stderr.contains(names), "{flags:?}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains(">> weather"),
            "{flags:?} got past the command line: {stderr}"
        );
        assert!(
            run.stdout.is_empty() && !out.exists(),
            "{flags:?} left output behind"
        );
        run.status.code()
    };
    // 500 % used to reach an `assert!` in `workload::arrivals` (exit 101).
    for value in ["5", "1.5000001", "0", "-0.4", "nan", "inf", "forty"] {
        assert_eq!(
            refused(
                &["--utilization", value],
                "--utilization needs a fraction in (0, 1.5]"
            ),
            Some(2)
        );
    }
    refused(&["--window", "0"], "--window needs");
    refused(&["--amplitude", "7"], "--amplitude needs");
    refused(&["--pairs", "0"], "--pairs needs");
    refused(&["--jobs", "0"], "--jobs needs");
    refused(&["--utilization"], "--utilization needs");
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
