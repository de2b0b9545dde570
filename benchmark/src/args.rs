//! Command-line parsing. Every malformed input is a [`BenchError::Usage`];
//! nothing here panics on what a caller can type.

use crate::error::{BenchError, Result};
use crate::workloads::Workload;
use std::path::PathBuf;

/// Default workload seed (the repository's customary 4801).
pub const DEFAULT_SEED: u64 = 4801;
/// Default measuring time per workload, matching `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 10;

/// What one invocation of `hbbench` does.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Measure one workload (`--workload`) or, without it, the whole set.
    Run(RunArgs),
    /// `compare A.json B.json`: judge B against A with the benchmark's bounds.
    Compare(PathBuf, PathBuf),
    /// `child sharded_dense …`: the benchmark-owned scenario, run in a child
    /// process of its own so its time and memory are measured like `repro`'s.
    ShardedChild(ShardedArgs),
}

/// Arguments of a measuring run.
#[derive(Debug, PartialEq)]
pub struct RunArgs {
    /// `None` runs every workload, end to end and traced.
    pub workload: Option<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure per workload.
    pub seconds: u32,
    /// With `--workload`: false reports the end-to-end metrics, true the
    /// per-layer ones.
    pub trace: bool,
    /// Where the full-set results record goes (default under `benchmark/out`).
    pub out: Option<PathBuf>,
}

/// Arguments of the `sharded_dense` child.
#[derive(Debug, PartialEq, Clone, Copy)]
pub struct ShardedArgs {
    /// Hosts per partition (the size knob).
    pub hosts: usize,
    /// Worker threads.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Build every partition, then exit without running an event.
    pub build_only: bool,
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T> {
    raw.parse().map_err(|_| {
        BenchError::Usage(format!(
            "{flag} needs a non-negative whole number, got '{raw}'"
        ))
    })
}

fn positive(flag: &str, raw: &str) -> Result<usize> {
    match number::<usize>(flag, raw)? {
        0 => Err(BenchError::Usage(format!("{flag} must be at least 1"))),
        n => Ok(n),
    }
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare(PathBuf::from(a), PathBuf::from(b))),
            _ => Err(BenchError::Usage(
                "compare needs exactly two results files".into(),
            )),
        },
        Some("child") => parse_child(&args[1..]),
        _ => parse_run(args),
    }
}

fn parse_run(args: &[String]) -> Result<Command> {
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it)?;
                run.workload = Some(Workload::parse(name).ok_or_else(|| {
                    BenchError::Usage(format!(
                        "unknown workload '{name}'; known: {}",
                        Workload::ALL.map(Workload::name).join(" ")
                    ))
                })?);
            }
            "--seed" => run.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => {
                run.seconds = match number::<u32>(flag, value(flag, &mut it)?)? {
                    s @ 1..=60 => s,
                    _ => return Err(BenchError::Usage("--seconds must be 1 to 60".into())),
                }
            }
            "--trace" => {
                run.trace = match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(BenchError::Usage(format!(
                            "--trace needs 0 or 1, got '{other}'"
                        )))
                    }
                }
            }
            "--out" => run.out = Some(PathBuf::from(value(flag, &mut it)?)),
            other => return Err(BenchError::Usage(format!("unknown argument '{other}'"))),
        }
    }
    Ok(Command::Run(run))
}

fn parse_child(args: &[String]) -> Result<Command> {
    if args.first().map(String::as_str) != Some("sharded_dense") {
        return Err(BenchError::Usage(
            "child needs the scenario name 'sharded_dense'".into(),
        ));
    }
    let (mut hosts, mut threads, mut seed, mut build_only) = (None, None, None, false);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--hosts" => hosts = Some(positive(flag, value(flag, &mut it)?)?),
            "--threads" => threads = Some(positive(flag, value(flag, &mut it)?)?),
            "--seed" => seed = Some(number(flag, value(flag, &mut it)?)?),
            "--build-only" => build_only = true,
            other => {
                return Err(BenchError::Usage(format!(
                    "unknown child argument '{other}'"
                )))
            }
        }
    }
    match (hosts, threads, seed) {
        (Some(hosts), Some(threads), Some(seed)) => Ok(Command::ShardedChild(ShardedArgs {
            hosts,
            threads,
            seed,
            build_only,
        })),
        _ => Err(BenchError::Usage(
            "child sharded_dense needs --hosts, --threads and --seed".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn usage(s: &str) -> String {
        match parse(&args(s)) {
            Err(BenchError::Usage(msg)) => msg,
            other => panic!("'{s}' should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn driver_command_line_parses() {
        let cmd = parse(&args(
            "--workload tiny_sims --seed 0 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: Some(Workload::TinySims),
                seed: 0,
                seconds: 10,
                trace: true,
                out: None,
            })
        );
    }

    #[test]
    fn no_arguments_is_the_full_set_at_the_default_seed() {
        let Command::Run(run) = parse(&[]).unwrap() else {
            panic!("expected a run")
        };
        assert_eq!(
            (run.workload, run.seed, run.seconds),
            (None, 4801, DEFAULT_SECONDS)
        );
    }

    #[test]
    fn hostile_values_are_usage_errors() {
        assert!(usage("--workload nope").contains("unknown workload 'nope'"));
        assert!(usage("--workload").contains("needs a value"));
        assert!(usage("--seed -3").contains("--seed"));
        assert!(usage("--seed 1e3").contains("--seed"));
        assert!(usage("--seed 99999999999999999999999").contains("--seed"));
        assert!(usage("--seconds 0").contains("1 to 60"));
        assert!(usage("--seconds 61").contains("1 to 60"));
        assert!(usage("--seconds ten").contains("--seconds"));
        assert!(usage("--trace 2").contains("0 or 1"));
        assert!(usage("--frobnicate").contains("unknown argument"));
        assert!(usage("compare only_one.json").contains("two results files"));
        assert!(usage("child planetlab").contains("sharded_dense"));
        assert!(usage("child sharded_dense --hosts 0 --threads 1 --seed 1").contains("at least 1"));
        assert!(usage("child sharded_dense --hosts 8 --seed 1").contains("--threads"));
    }

    #[test]
    fn truncated_command_lines_never_panic() {
        let full = args("--workload weather_tcp --seed 7 --seconds 10 --trace 0 --out x.json");
        for n in 0..full.len() {
            let _ = parse(&full[..n]);
        }
        let child = args("child sharded_dense --hosts 8 --threads 2 --seed 7 --build-only");
        for n in 0..child.len() {
            let _ = parse(&child[..n]);
        }
    }
}
