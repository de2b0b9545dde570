//! The one error type of `hbbench`: every failure a user or a broken child
//! process can cause is a variant here, rendered as one line on stderr with a
//! non-zero exit. Panics are reserved for bugs in the benchmark itself.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong outside a bug in `hbbench`.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line: unknown flag, unknown workload, unparseable or
    /// out-of-range value.
    Usage(String),
    /// A binary the benchmark spawns (`repro`, or `hbbench` itself) is not
    /// where the build puts it.
    MissingBinary(PathBuf),
    /// A file or process operation failed.
    Io {
        /// What the benchmark was doing.
        what: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A child exceeded the per-run time limit and was killed by its alarm.
    Timeout {
        /// The command line that timed out.
        command: String,
        /// The limit, in seconds.
        limit_s: u32,
    },
    /// A child exited non-zero or was killed by a signal.
    ChildFailed {
        /// The command line.
        command: String,
        /// Exit code or signal, rendered.
        status: String,
    },
    /// An output file or line of the program under test did not parse.
    Parse {
        /// Which output (`weather.json`, `manifest.json`, a results file…).
        what: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A correctness check on a run's outputs failed: which check, and the
    /// offending values. Callers say which workload.
    Check(String),
}

impl BenchError {
    /// Shorthand for an [`BenchError::Io`] with context.
    pub fn io(what: impl Into<String>, source: std::io::Error) -> Self {
        BenchError::Io {
            what: what.into(),
            source,
        }
    }

    /// Shorthand for a [`BenchError::Parse`].
    pub fn parse(what: impl Into<String>, detail: impl Into<String>) -> Self {
        BenchError::Parse {
            what: what.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage error: {msg}"),
            BenchError::MissingBinary(path) => write!(
                f,
                "missing binary {}: build it first (benchmark/run.sh does)",
                path.display()
            ),
            BenchError::Io { what, source } => write!(f, "{what}: {source}"),
            BenchError::Timeout { command, limit_s } => {
                write!(f, "timed out after {limit_s} s: {command}")
            }
            BenchError::ChildFailed { command, status } => {
                write!(f, "child failed ({status}): {command}")
            }
            BenchError::Parse { what, detail } => write!(f, "cannot parse {what}: {detail}"),
            BenchError::Check(detail) => write!(f, "check failed: {detail}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result alias used throughout the benchmark.
pub type Result<T> = std::result::Result<T, BenchError>;
