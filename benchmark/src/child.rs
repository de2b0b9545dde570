//! One measured run = one child process. The parent blocks in `wait4` while
//! the child runs (no poller thread competing for one of two cores) and reads
//! the child's own peak memory and CPU time from the `rusage` the kernel
//! fills in at reap time. The time limit is an `alarm` armed in the child
//! before `exec`: alarms survive `exec`, and an unhandled `SIGALRM` ends the
//! whole process, so no watchdog thread is needed either.
//!
//! One trap: `ru_maxrss` survives `exec`, so a child never reports less than
//! the parent's own peak at the moment of the fork. `hbbench` therefore
//! measures `peak_rss_mb` only while it is still small — every end-to-end run
//! comes before the first in-process rig.

use crate::error::{BenchError, Result};
use std::ffi::c_int;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "hbbench reads `struct rusage` with the 64-bit Linux layout (ru_maxrss in KiB); port child.rs first"
);

/// Wall-clock limit of any one child, in seconds.
pub const CHILD_LIMIT_S: u32 = 60;

const SIGALRM: c_int = 14;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out: two timevals, then fourteen
/// longs of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn alarm(seconds: u32) -> u32;
}

/// What the parent observed of one finished child.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Host seconds, spawn to reaped exit.
    pub wall_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds the child used, all threads.
    pub cpu_s: f64,
    /// The exit code, one of the codes the caller accepts.
    pub exit_code: i32,
    /// Everything the child wrote to standard output.
    pub stdout: String,
}

/// A child's standard output: captured to a file under `scratch` (a pipe
/// would need a reader thread once the child writes more than the pipe
/// holds), or discarded.
pub enum Stdout<'a> {
    /// Capture into `<scratch>/stdout.txt` and return the text.
    Capture(&'a Path),
    /// Send to `/dev/null`.
    Discard,
}

fn render(program: &Path, args: &[String]) -> String {
    format!("{} {}", program.display(), args.join(" "))
}

/// Run `program args…` to completion and measure it. An exit code outside
/// `ok_codes`, a signal or the time limit is an error; standard error is
/// discarded (the programs under test write only progress there).
pub fn run(
    program: &Path,
    args: &[String],
    stdout: Stdout<'_>,
    ok_codes: &[i32],
) -> Result<ChildRun> {
    if !program.is_file() {
        return Err(BenchError::MissingBinary(program.to_path_buf()));
    }
    let command = render(program, args);
    let capture = match stdout {
        Stdout::Capture(scratch) => Some(scratch.join("stdout.txt")),
        Stdout::Discard => None,
    };
    let out = match &capture {
        Some(path) => Stdio::from(
            std::fs::File::create(path)
                .map_err(|e| BenchError::io(format!("create {}", path.display()), e))?,
        ),
        None => Stdio::null(),
    };
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null());
    // SAFETY: the closure runs in the forked child before `exec` and calls
    // only `alarm`, which is async-signal-safe, touches no memory of this
    // program and cannot fail.
    unsafe {
        cmd.pre_exec(|| {
            alarm(CHILD_LIMIT_S);
            Ok(())
        });
    }
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| BenchError::io(format!("spawn {command}"), e))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and of the types and
    // layout `wait4(2)` fills on 64-bit Linux (enforced by the compile_error
    // above); the pid is a child of this process that nothing else waits on
    // — `child` is dropped unwaited, and `Child` does not reap on drop.
    let reaped = unsafe { wait4(child.id() as c_int, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(BenchError::io(
            format!("wait4 for {command}"),
            std::io::Error::last_os_error(),
        ));
    }
    // The classic wait-status encoding: low 7 bits = terminating signal
    // (0 for a normal exit), next byte = exit code.
    let (signal, code) = (status & 0x7f, (status >> 8) & 0xff);
    if signal == SIGALRM {
        return Err(BenchError::Timeout {
            command,
            limit_s: CHILD_LIMIT_S,
        });
    }
    if signal != 0 || !ok_codes.contains(&code) {
        let status = if signal != 0 {
            format!("signal {signal}")
        } else {
            format!("exit code {code}")
        };
        return Err(BenchError::ChildFailed { command, status });
    }
    let stdout = match &capture {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| BenchError::io(format!("read {}", path.display()), e))?,
        None => String::new(),
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        exit_code: code,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Result<ChildRun> {
        let scratch = std::env::temp_dir().join(format!(
            "hbbench-child-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&scratch).unwrap();
        let r = run(
            Path::new("/bin/sh"),
            &["-c".into(), script.into()],
            Stdout::Capture(&scratch),
            &[0, 7],
        );
        let _ = std::fs::remove_dir_all(&scratch);
        r
    }

    #[test]
    fn measures_a_child_and_captures_its_output() {
        let r = sh("echo hello").unwrap();
        assert_eq!((r.stdout.as_str(), r.exit_code), ("hello\n", 0));
        assert!(r.wall_s > 0.0 && r.peak_rss_mb > 0.1, "{r:?}");
        assert_eq!(sh("exit 7").unwrap().exit_code, 7, "an accepted code");
    }

    #[test]
    fn failures_are_typed() {
        assert!(matches!(
            sh("exit 3"),
            Err(BenchError::ChildFailed { status, .. }) if status == "exit code 3"
        ));
        assert!(matches!(
            sh("kill -9 $$"),
            Err(BenchError::ChildFailed { status, .. }) if status == "signal 9"
        ));
        // The alarm the parent armed is what a run over the limit dies of.
        assert!(matches!(
            sh("kill -ALRM $$"),
            Err(BenchError::Timeout { .. })
        ));
        assert!(matches!(
            run(Path::new("/no/such/repro"), &[], Stdout::Discard, &[0]),
            Err(BenchError::MissingBinary(_))
        ));
    }
}
