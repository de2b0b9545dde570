//! Checkpoint/restore battery for the open-loop weather service mode.
//!
//! The contract under test: a run killed at a checkpoint and resumed must
//! produce **byte-identical** output files to an uninterrupted run of the
//! same configuration — across every scheme, because each scheme carries
//! its own in-flight strategy state through the snapshot. And the other
//! half: a checkpoint that is damaged, truncated, from another format
//! version, or orphaned from its CSV is refused with a typed error.

use netsim::snap::{SnapError, STREAM_BUF};
use netsim::SimDuration;
use scenarios::weather::{run_weather, WeatherConfig, WeatherRunOptions};
use scenarios::Protocol;
use std::path::PathBuf;
use std::sync::OnceLock;

fn cfg(protocol: Protocol, secs: u64, window: u64, ckpt_every: u64) -> WeatherConfig {
    WeatherConfig {
        protocol,
        utilization: 0.3,
        duration: SimDuration::from_secs(secs),
        window: SimDuration::from_secs(window),
        warmup: SimDuration::from_secs(window),
        checkpoint_every: ckpt_every,
        amplitude: 0.3,
        period: SimDuration::from_secs(2 * secs),
        host_pairs: 2,
        seed: 11,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("halfback-weather-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `weather.json` minus the machine-varying `"machine"` line (RSS moves
/// between invocations even in the same process).
fn summary_stripped(dir: &std::path::Path) -> String {
    std::fs::read_to_string(dir.join("weather.json"))
        .unwrap()
        .lines()
        .filter(|l| !l.contains("\"machine\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run `c` twice: once uninterrupted, once killed at the first checkpoint
/// and resumed; assert the output files (and the final checkpoint itself)
/// are byte-identical. Returns the final checkpoint's length.
fn assert_kill_resume_identical(c: &WeatherConfig, tag: &str) -> usize {
    let a = tmp_dir(&format!("{tag}-a"));
    let b = tmp_dir(&format!("{tag}-b"));

    let full = run_weather(c, &a, &WeatherRunOptions::default()).unwrap();
    assert!(!full.stopped_early);
    assert!(
        full.checkpoints >= 1,
        "{tag}: config produced no checkpoints"
    );

    let killed = run_weather(
        c,
        &b,
        &WeatherRunOptions {
            resume: false,
            stop_after_checkpoints: Some(1),
        },
    )
    .unwrap();
    assert!(killed.stopped_early, "{tag}: kill did not trigger");
    assert!(
        killed.windows < full.windows,
        "{tag}: kill point must precede the end"
    );
    let resumed = run_weather(
        c,
        &b,
        &WeatherRunOptions {
            resume: true,
            stop_after_checkpoints: None,
        },
    )
    .unwrap();
    assert!(!resumed.stopped_early);

    assert_eq!(full.started, resumed.started, "{tag}: started diverged");
    assert_eq!(
        full.completed, resumed.completed,
        "{tag}: completed diverged"
    );
    assert_eq!(full.aborted, resumed.aborted, "{tag}: aborted diverged");

    let csv_a = std::fs::read(a.join("windows.csv")).unwrap();
    let csv_b = std::fs::read(b.join("windows.csv")).unwrap();
    assert!(
        csv_a == csv_b,
        "{tag}: windows.csv diverged after kill+resume:\n--- uninterrupted\n{}\n--- resumed\n{}",
        String::from_utf8_lossy(&csv_a),
        String::from_utf8_lossy(&csv_b)
    );
    assert_eq!(
        summary_stripped(&a),
        summary_stripped(&b),
        "{tag}: weather.json diverged after kill+resume"
    );
    let ck_a = std::fs::read(a.join("weather.ckpt")).unwrap();
    let ck_b = std::fs::read(b.join("weather.ckpt")).unwrap();
    assert!(ck_a == ck_b, "{tag}: final checkpoints diverged");

    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
    ck_a.len()
}

#[test]
fn kill_resume_is_byte_identical_halfback() {
    // Long enough for several checkpoints with flows in flight at each, and
    // each checkpoint streamed to disk across several buffer spills.
    let len = assert_kill_resume_identical(&cfg(Protocol::Halfback, 60, 10, 2), "halfback");
    assert!(
        len > 2 * STREAM_BUF,
        "checkpoint of {len} bytes spills at most once"
    );
}

#[test]
fn kill_resume_is_byte_identical_for_every_scheme() {
    // Checkpoint every window so the kill lands with the scheme's own
    // in-flight state (Reno, PCP probe trains, JumpStart batches, ROPR
    // cursors, TCP-Cache path entries) mid-life.
    for p in Protocol::EVALUATED {
        assert_kill_resume_identical(&cfg(p, 40, 10, 1), p.name());
    }
}

#[test]
fn resume_from_later_checkpoint_also_matches() {
    // Kill at the *second* checkpoint: exercises resume-state written by a
    // run that was itself resumed-equivalent (checkpoint-of-checkpoint).
    let c = cfg(Protocol::Halfback, 80, 10, 2);
    let a = tmp_dir("late-a");
    let b = tmp_dir("late-b");
    run_weather(&c, &a, &WeatherRunOptions::default()).unwrap();
    run_weather(
        &c,
        &b,
        &WeatherRunOptions {
            resume: false,
            stop_after_checkpoints: Some(2),
        },
    )
    .unwrap();
    run_weather(
        &c,
        &b,
        &WeatherRunOptions {
            resume: true,
            stop_after_checkpoints: None,
        },
    )
    .unwrap();
    assert_eq!(
        std::fs::read(a.join("windows.csv")).unwrap(),
        std::fs::read(b.join("windows.csv")).unwrap(),
        "late-kill resume diverged"
    );
    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
}

#[test]
fn double_kill_double_resume_matches() {
    // Crash, resume, crash again during the resumed run, resume again.
    let c = cfg(Protocol::Halfback, 80, 10, 2);
    let a = tmp_dir("double-a");
    let b = tmp_dir("double-b");
    run_weather(&c, &a, &WeatherRunOptions::default()).unwrap();
    run_weather(
        &c,
        &b,
        &WeatherRunOptions {
            resume: false,
            stop_after_checkpoints: Some(1),
        },
    )
    .unwrap();
    let second = run_weather(
        &c,
        &b,
        &WeatherRunOptions {
            resume: true,
            stop_after_checkpoints: Some(1),
        },
    )
    .unwrap();
    assert!(second.stopped_early, "second kill did not trigger");
    run_weather(
        &c,
        &b,
        &WeatherRunOptions {
            resume: true,
            stop_after_checkpoints: None,
        },
    )
    .unwrap();
    assert_eq!(
        std::fs::read(a.join("windows.csv")).unwrap(),
        std::fs::read(b.join("windows.csv")).unwrap(),
        "double-kill resume diverged"
    );
    assert_eq!(summary_stripped(&a), summary_stripped(&b));
    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
}

#[test]
fn receivers_are_reaped_on_long_runs() {
    // 10 simulated minutes: past the 180 s reap grace the receiver
    // population must plateau at roughly (arrival rate x grace), not grow
    // with total flow count.
    let c = cfg(Protocol::Halfback, 600, 60, 3);
    let dir = tmp_dir("reap");
    let out = run_weather(&c, &dir, &WeatherRunOptions::default()).unwrap();
    assert!(
        out.reaped > 0,
        "no receivers reaped in 10 simulated minutes"
    );
    let csv = std::fs::read_to_string(dir.join("windows.csv")).unwrap();
    let last = csv.lines().last().unwrap();
    let live_receivers: f64 = last.split(',').nth(10).unwrap().parse().unwrap();
    // Steady state: ~grace seconds of arrivals (grace 180 s + one 60 s
    // window of slop), well short of the 600 s total.
    let rate_per_s = out.started as f64 / 600.0;
    let bound = rate_per_s * 240.0 * 1.2;
    assert!(
        live_receivers < bound,
        "receiver population {live_receivers} above steady-state bound {bound:.0} \
         (started {})",
        out.started
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn resume(c: &WeatherConfig, dir: &std::path::Path) -> std::io::Result<()> {
    let opts = WeatherRunOptions {
        resume: true,
        stop_after_checkpoints: None,
    };
    run_weather(c, dir, &opts).map(|_| ())
}

/// The `SnapError` a refused resume carries, if that is what refused it.
fn snap_error(e: &std::io::Error) -> Option<&SnapError> {
    e.get_ref()?.downcast_ref()
}

/// A run killed at its first checkpoint, with flows in flight at the kill.
fn killed_run(tag: &str) -> (WeatherConfig, PathBuf, Vec<u8>) {
    let c = cfg(Protocol::Halfback, 40, 10, 1);
    let dir = tmp_dir(tag);
    let opts = WeatherRunOptions {
        resume: false,
        stop_after_checkpoints: Some(1),
    };
    assert!(run_weather(&c, &dir, &opts).unwrap().stopped_early);
    let ckpt = std::fs::read(dir.join("weather.ckpt")).unwrap();
    (c, dir, ckpt)
}

#[test]
fn damaged_checkpoints_are_refused_never_resumed() {
    // Hostile-input battery: seeded single-bit flips and truncations of a
    // mid-run checkpoint. Every resume must come back `Err` — no panic, no
    // abort on an absurd allocation, and above all no `Ok` (a run resumed
    // from damaged state finishes with plausible, wrong output).
    let (c, dir, good) = killed_run("hostile");
    let csv = std::fs::read(dir.join("windows.csv")).unwrap();
    let attempt = |bytes: &[u8], what: String| -> std::io::Error {
        std::fs::write(dir.join("weather.ckpt"), bytes).unwrap();
        match std::panic::catch_unwind(|| resume(&c, &dir)) {
            Ok(Err(e)) => e,
            Ok(Ok(())) => panic!("{what}: resumed from a damaged checkpoint"),
            Err(_) => panic!("{what}: resume panicked"),
        }
    };
    let mut rng = netsim::rng::SimRng::new(0xBAD5EED);
    // Every third byte of the head (file header, config fingerprint, driver
    // scalars), then seeded offsets over the whole file.
    let head = (0..240usize).map(|i| 3 * i).filter(|&o| o < good.len());
    let offsets: Vec<usize> = head
        .chain((0..120).map(|_| rng.index(good.len())))
        .collect();
    assert!(offsets.len() >= 200);
    for (i, &at) in offsets.iter().enumerate() {
        let mut bad = good.clone();
        bad[at] ^= 1 << (i % 8);
        let e = attempt(&bad, format!("bit {} of byte {at}", i % 8));
        // Past the 16-byte file header only the checksum can notice.
        if at >= 16 {
            assert!(
                matches!(snap_error(&e), Some(SnapError::Checksum { .. })),
                "byte {at}: {e}"
            );
        }
    }
    let cuts = (0..30usize)
        .chain((0..30).map(|_| rng.index(good.len())))
        .chain([good.len() - 1]);
    for cut in cuts {
        let e = attempt(&good[..cut], format!("cut to {cut} bytes"));
        assert!(
            matches!(snap_error(&e), Some(SnapError::Eof { .. })),
            "cut {cut}: {e}"
        );
        assert!(e.to_string().contains("snapshot truncated"), "{e}");
    }
    // None of the refusals touched the CSV, and the intact checkpoint still
    // resumes to completion.
    assert_eq!(std::fs::read(dir.join("windows.csv")).unwrap(), csv);
    std::fs::write(dir.join("weather.ckpt"), &good).unwrap();
    resume(&c, &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint of a run killed at its first checkpoint, taken once and
/// shared by every version refusal below.
fn killed_checkpoint() -> &'static (WeatherConfig, Vec<u8>) {
    static RUN: OnceLock<(WeatherConfig, Vec<u8>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let (c, dir, ckpt) = killed_run("old-versions");
        std::fs::remove_dir_all(&dir).unwrap();
        (c, ckpt)
    })
}

/// The shared checkpoint with its version field (bytes 4..8) set back to
/// `old`: the reader must stop at the header.
fn assert_version_refused(old: u32) {
    let (c, good) = killed_checkpoint();
    let mut ckpt = good.clone();
    ckpt[4..8].copy_from_slice(&old.to_le_bytes());
    let dir = tmp_dir(&format!("v{old}"));
    std::fs::write(dir.join("weather.ckpt"), &ckpt).unwrap();
    let e = resume(c, &dir).unwrap_err();
    assert!(
        matches!(snap_error(&e), Some(SnapError::Version { got, .. }) if *got == old),
        "{e}"
    );
    let msg = format!("unsupported snapshot version {old}");
    assert!(e.to_string().contains(&msg), "{e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One test per row: `name: version`.
macro_rules! version_refusals {
    ($($name:ident: $old:expr,)*) => {
        $(
            #[test]
            fn $name() {
                assert_version_refused($old);
            }
        )*
    };
}

// Every version before this build's, each with what a reader of the
// version after it would misread. A version bump adds a row.
version_refusals! {
    // Version 1 wrote a dead payload for every absent option and SACK
    // blocks at full size; a version-2 reader would take the padding for
    // the fields that follow.
    v1_checkpoint_is_refused_with_the_version_error: 1,
    // Version 2 kept one queue entry per timer arming, each carrying node,
    // id and token; a version-3 reader that decoded one would find slot
    // indices where it expects none of those.
    v2_checkpoint_is_refused_with_the_version_error: 2,
    // Version 3 checksummed the header as well as the body, so a version-4
    // reader would refuse its trailer; the version word says why first.
    v3_checkpoint_is_refused_with_the_version_error: 3,
    // Version 4 carried a per-host timer census (40 bytes a host), an
    // initial ssthresh in every Reno engine, and TCP-Cache's age-out
    // setting and the time each path-cache entry was written; a version-5
    // reader would decode those bytes as the fields that follow them.
    v4_checkpoint_is_refused_with_the_version_error: 4,
    // Version 5 carried no rate, delay or fault cursor per link and a queue
    // only as a drop-tail FIFO; a version-6 reader would take a link's loss
    // cursor for its rate.
    v5_checkpoint_is_refused_with_the_version_error: 5,
    // Version 6 saved every sender host and then every receiver host; a
    // version-7 reader loads hosts pair by pair and would take the second
    // sender host's state for the first receiver's.
    v6_checkpoint_is_refused_with_the_version_error: 6,
    // Version 7 saved a pacing threshold (an `Option`) at the head of every
    // Halfback sender's state; a version-8 reader would read its tag as the
    // sender's phase and every later field out of step.
    v7_checkpoint_is_refused_with_the_version_error: 7,
    // Version 8 carried an engine snapshot of version 4: no `(at, seq)`
    // position for the engine and no end of transmission per link, so a
    // version-9 reader would take a link's stats for its transmission's
    // end.
    v8_checkpoint_is_refused_with_the_version_error: 8,
    // Version 9 carried an engine snapshot of version 5: a silent flag per
    // link and end-of-transmission entries (tag 0) that decide a packet's
    // fate, so a version-10 reader would take a link's silent flag for the
    // end of its transmission and refuse the tag.
    v9_checkpoint_is_refused_with_the_version_error: 9,
    // Version 10 saved every Reactive sender's probe limit after its probe
    // count; a version-11 reader would take the limit for the first field
    // of the next host's state.
    v10_checkpoint_is_refused_with_the_version_error: 10,
}

#[test]
fn resume_refuses_a_csv_shorter_than_the_checkpoint() {
    // windows.csv lost or cut between kill and resume: `set_len` would pad
    // it with NULs up to the checkpointed offset and the run would exit 0.
    let (c, dir, _) = killed_run("shortcsv");
    let csv_path = dir.join("windows.csv");
    let full = std::fs::read(&csv_path).unwrap();
    std::fs::write(&csv_path, &full[..50]).unwrap();
    let e = resume(&c, &dir).unwrap_err();
    let msg = e.to_string();
    assert!(
        msg.contains("50 bytes") && msg.contains(&format!("byte {}", full.len())),
        "error must name both lengths: {msg}"
    );
    assert_eq!(
        std::fs::read(&csv_path).unwrap(),
        &full[..50],
        "a refused resume must not touch the CSV"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
