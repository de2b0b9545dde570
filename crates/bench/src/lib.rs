//! Minimal std-only micro-benchmark harness.
//!
//! The container this reproduction builds in has no access to crates.io,
//! so Criterion is out of reach; this module provides the small subset the
//! engine and e2e benches need: named groups, warmup, a fixed sample count,
//! median/mean/min/p95 wall-clock reporting with adaptive units, optional
//! per-element throughput, machine-readable JSON output, and a regression
//! check against a committed baseline.
//!
//! Each bench target is a plain binary with `harness = false`. Invocation
//! (everything after `--` reaches the binary):
//!
//! ```text
//! cargo bench --bench engine                          # run everything
//! cargo bench --bench engine -- event_queue           # substring filter
//! cargo bench --bench engine -- --list                # list bench names
//! cargo bench --bench engine -- --json out.json       # also write JSON
//! cargo bench --bench engine -- --check BENCH_netsim.json
//! #   run, then exit non-zero if any median regressed >1.3x vs the
//! #   baseline, if a filter matched nothing, or if no bench ran at all
//! cargo bench --bench engine -- --baseline-covers BENCH_netsim.json
//! #   run nothing; exit non-zero unless every registered bench has a
//! #   baseline entry and the file passes halfback-bench-v1 validation
//! ```
//!
//! Positional arguments are substring filters (a bench runs if any filter
//! matches its registered name or its full `group/id`); `--`-prefixed
//! arguments are options, never filters — including flags cargo itself
//! forwards, like `--bench`, which are ignored.
//!
//! ## Noise handling
//!
//! The reported `median_ns` is the *minimum of K=3 block medians*: the
//! chronological samples are split into three consecutive blocks and each
//! block's median is taken. CI noise is time-correlated (a co-tenant burst,
//! a thermal dip) and inflates one block, not all three, so the min-of-
//! medians stays put where a whole-run median would drift — which is what
//! lets `--check` hold a 1.3x threshold instead of 2x without flaking.

#![forbid(unsafe_code)]

use netsim::json;
use std::fmt::Write as _;
use std::time::Instant;

/// Regression threshold for `--check`: fail if a median is more than this
/// factor slower than the committed baseline. The min-of-K-block-medians
/// estimator absorbs time-correlated runner noise, so the gate can sit
/// close to real regressions instead of the 2x "catastrophe-only" band the
/// plain median needed.
pub const CHECK_FACTOR: f64 = 1.3;

/// Number of consecutive sample blocks for the min-of-medians estimator.
pub const MEDIAN_BLOCKS: usize = 3;

/// One finished measurement, in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full id, `group/function`.
    pub name: String,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub p95_ns: f64,
    pub samples: usize,
    /// Elements processed per iteration, when the group declares throughput.
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Elements per second at the median, when throughput is declared.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.elements.map(|n| n as f64 / (self.median_ns / 1e9))
    }
}

/// Render a duration in nanoseconds with an adaptive unit (ns/µs/ms/s),
/// keeping three significant-ish digits.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Minimum of the medians of `k` consecutive blocks of `chronological`
/// samples. Blocks differ in length by at most one when `k` does not
/// divide the sample count; fewer samples than blocks degenerates to the
/// plain minimum (every block has one sample).
pub fn min_of_block_medians(chronological: &[f64], k: usize) -> f64 {
    let n = chronological.len();
    if n == 0 {
        return 0.0;
    }
    let k = k.clamp(1, n);
    let (base, rem) = (n / k, n % k);
    let mut best = f64::INFINITY;
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        let mut block = chronological[start..start + len].to_vec();
        block.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        best = best.min(block[block.len() / 2]);
        start += len;
    }
    best
}

/// Parsed command line for a bench binary.
#[derive(Debug, Default)]
pub struct Config {
    /// Positional substring filters; empty means "run everything".
    pub filters: Vec<String>,
    /// `--list`: print bench names, run nothing.
    pub list: bool,
    /// `--json <path>`: write results as JSON after the run.
    pub json: Option<String>,
    /// `--check <path>`: compare medians against a committed baseline.
    pub check: Option<String>,
    /// `--baseline-covers <path>`: run nothing; verify every registered
    /// bench has an entry in the baseline file and the file validates
    /// against the `halfback-bench-v1` schema.
    pub baseline_covers: Option<String>,
}

impl Config {
    /// Parse `std::env::args`. Options start with `-`; anything else is a
    /// substring filter. Unknown options (e.g. the `--bench` flag cargo
    /// forwards to bench binaries) are ignored rather than being mistaken
    /// for filters.
    pub fn from_args() -> Config {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(args: impl Iterator<Item = String>) -> Config {
        let mut cfg = Config::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--list" => cfg.list = true,
                "--json" => cfg.json = args.next(),
                "--check" => cfg.check = args.next(),
                "--baseline-covers" => cfg.baseline_covers = args.next(),
                _ if a.starts_with('-') => {} // cargo's --bench, etc.
                _ => cfg.filters.push(a),
            }
        }
        cfg
    }

    /// True when `name` passes the filters (no filters = run everything).
    pub fn matches(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }
}

/// One benchmark group: a name plus shared sample settings.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    samples: usize,
    elements: Option<u64>,
}

impl Group<'_> {
    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Report per-element throughput alongside wall-clock time.
    pub fn throughput_elements(&mut self, n: u64) -> &mut Self {
        self.elements = Some(n);
        self
    }

    /// Time `f` over the group's sample count and print a summary line.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut()) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        // Record which filters this bench satisfies, so the runner can fail
        // a `--check` where a filter silently matched nothing.
        let mut selected = self.bench.config.filters.is_empty() || self.bench.registered_matches;
        for (i, pat) in self.bench.config.filters.iter().enumerate() {
            if full.contains(pat.as_str()) {
                self.bench.filter_hits[i] = true;
                selected = true;
            }
        }
        if !selected {
            return self;
        }
        if self.bench.config.list || self.bench.collect_only {
            if self.bench.config.list {
                println!("{full}");
            }
            self.bench.collected.push(full);
            return self;
        }
        // One untimed warmup iteration (fills caches, faults pages).
        f();
        let mut ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            f();
            ns.push(t0.elapsed().as_nanos() as f64);
        }
        // Noise-aware median over the *chronological* samples (see module
        // docs), then order statistics over the sorted copy.
        let median_ns = min_of_block_medians(&ns, MEDIAN_BLOCKS);
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = ns.len();
        let result = BenchResult {
            name: full,
            median_ns,
            mean_ns: ns.iter().sum::<f64>() / n as f64,
            min_ns: ns[0],
            // Nearest-rank p95 (for n=10 this is the 10th sample).
            p95_ns: ns[(((0.95 * n as f64).ceil() as usize).clamp(1, n)) - 1],
            samples: n,
            elements: self.elements,
        };
        let mut line = format!(
            "{:<44} median {:>10}  mean {:>10}  min {:>10}  p95 {:>10}  ({} samples)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mean_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.p95_ns),
            result.samples,
        );
        if let Some(per_sec) = result.elements_per_sec() {
            let _ = write!(line, "  {:.3} M elem/s", per_sec / 1e6);
        }
        println!("{line}");
        self.bench.results.push(result);
        self
    }

    /// No-op, kept for call-site symmetry with Criterion.
    pub fn finish(&mut self) {}
}

/// Entry point handed to each bench function (Criterion-shaped). Collects
/// results so the runner can emit JSON / run the regression check.
pub struct Bench {
    config: Config,
    results: Vec<BenchResult>,
    /// The registered function name already matched a filter, so every
    /// group/id inside it runs regardless of its own name.
    registered_matches: bool,
    /// `filter_hits[i]` turns true once filter `i` selects anything —
    /// a registered function name or a `group/id`.
    filter_hits: Vec<bool>,
    /// Register names without running (`--list`, `--baseline-covers`).
    collect_only: bool,
    /// Names that passed the filters, in registration order.
    collected: Vec<String>,
}

impl Bench {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            name: name.to_string(),
            samples: 10,
            elements: None,
            bench: self,
        }
    }
}

/// One registered bench function.
pub type BenchFn = fn(&mut Bench);

/// Serialize results to the `halfback-bench-v1` JSON document.
pub fn results_to_json(results: &[BenchResult]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.key("schema").str("halfback-bench-v1");
        // Fingerprint of the machine and build the numbers came from: std
        // only, so coarse, but enough to tell two baselines apart.
        w.key("env").obj(|w| {
            w.key("arch").str(std::env::consts::ARCH);
            w.key("os").str(std::env::consts::OS);
            let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
            w.key("cpus").u64(cpus as u64);
            let profile = if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            };
            w.key("profile").str(profile);
        });
        w.key("results").arr(|w| {
            for r in results {
                w.elem().obj(|w| {
                    w.key("name").str(&r.name);
                    w.key("median_ns").num(r.median_ns);
                    w.key("mean_ns").num(r.mean_ns);
                    w.key("min_ns").num(r.min_ns);
                    w.key("p95_ns").num(r.p95_ns);
                    w.key("samples").u64(r.samples as u64);
                    if let Some(n) = r.elements {
                        w.key("elements").u64(n);
                        w.key("elements_per_sec")
                            .num(r.elements_per_sec().unwrap_or(0.0));
                    }
                });
            }
        });
    });
    w.finish()
}

/// Extract `name -> median_ns` from a baseline document's top-level
/// `results`.
pub fn baseline_medians(doc: &json::Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(json::Value::Array(items)) = doc.get("results") {
        for item in items {
            if let (Some(json::Value::String(name)), Some(json::Value::Number(m))) =
                (item.get("name"), item.get("median_ns"))
            {
                out.push((name.clone(), *m));
            }
        }
    }
    out
}

/// Run a list of bench functions under the parsed [`Config`]: apply
/// filters, honour `--list`, write `--json`, and perform the `--check`
/// regression comparison (exiting non-zero on failure).
pub fn run_benches(benches: &[(&str, BenchFn)]) {
    let config = Config::from_args();
    let n_filters = config.filters.len();
    let collect_only = config.baseline_covers.is_some();
    let mut b = Bench {
        config,
        results: Vec::new(),
        registered_matches: false,
        filter_hits: vec![false; n_filters],
        collect_only,
        collected: Vec::new(),
    };
    for (name, f) in benches {
        // A filter can select a whole registered function by its name, or
        // individual `group/id` benches inside any function; when the
        // function name itself matches, everything inside it runs.
        b.registered_matches = false;
        for (i, p) in b.config.filters.iter().enumerate() {
            if name.contains(p.as_str()) {
                b.filter_hits[i] = true;
                b.registered_matches = true;
            }
        }
        f(&mut b);
    }
    if let Some(path) = b.config.baseline_covers.clone() {
        check_baseline_covers(&b.collected, &path);
        return;
    }
    if let Some(path) = b.config.json.clone() {
        let doc = results_to_json(&b.results);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("bench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("bench: wrote {} results to {path}", b.results.len());
    }
    if let Some(path) = b.config.check.clone() {
        // A check that silently ran nothing is a green light that gates
        // nothing: a typo'd filter must fail loudly, not pass quietly.
        let dead: Vec<&str> = b
            .config
            .filters
            .iter()
            .zip(&b.filter_hits)
            .filter(|(_, hit)| !**hit)
            .map(|(f, _)| f.as_str())
            .collect();
        if !dead.is_empty() {
            eprintln!(
                "bench: --check active but filter(s) matched no benchmark: {}",
                dead.join(", ")
            );
            std::process::exit(1);
        }
        if b.results.is_empty() {
            eprintln!("bench: --check active but no benchmark ran");
            std::process::exit(1);
        }
        check_against_baseline(&b.results, &path);
    }
}

/// Validate a parsed baseline document against the `halfback-bench-v1`
/// schema: a matching `schema` tag and a top-level `results` array whose
/// entries each carry a string `name` and a numeric `median_ns`.
pub fn validate_baseline_schema(doc: &json::Value) -> Result<(), String> {
    match doc.get("schema") {
        Some(json::Value::String(s)) if s == "halfback-bench-v1" => {}
        Some(json::Value::String(s)) => {
            return Err(format!("schema is \"{s}\", expected \"halfback-bench-v1\""));
        }
        _ => return Err("missing string `schema` field".to_string()),
    }
    let Some(json::Value::Array(items)) = doc.get("results") else {
        return Err("no top-level `results` array".to_string());
    };
    for (i, item) in items.iter().enumerate() {
        if !matches!(item.get("name"), Some(json::Value::String(_))) {
            return Err(format!("results[{i}] lacks a string `name`"));
        }
        if !matches!(item.get("median_ns"), Some(json::Value::Number(_))) {
            return Err(format!("results[{i}] lacks a numeric `median_ns`"));
        }
    }
    Ok(())
}

/// The parsed baseline at `path`; exits the process if it cannot be read
/// or parsed.
fn read_baseline(path: &str) -> json::Value {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))
        .and_then(|text| {
            json::parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))
        });
    parsed.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        std::process::exit(1)
    })
}

fn check_baseline_covers(registered: &[String], path: &str) {
    let doc = read_baseline(path);
    if let Err(e) = validate_baseline_schema(&doc) {
        eprintln!("bench: {path} fails halfback-bench-v1 validation: {e}");
        std::process::exit(1);
    }
    let baseline = baseline_medians(&doc);
    let missing: Vec<&str> = registered
        .iter()
        .filter(|n| !baseline.iter().any(|(b, _)| b == *n))
        .map(|n| n.as_str())
        .collect();
    for (name, _) in &baseline {
        if !registered.iter().any(|n| n == name) {
            eprintln!("bench: warning: stale baseline entry {name} (no such bench)");
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "bench: {} bench(es) have no entry in {path}: {}",
            missing.len(),
            missing.join(", ")
        );
        eprintln!("bench: regenerate the baseline with --json and commit it");
        std::process::exit(1);
    }
    eprintln!(
        "bench: {path} covers all {} registered benches",
        registered.len()
    );
}

fn check_against_baseline(results: &[BenchResult], path: &str) {
    let doc = read_baseline(path);
    let baseline = baseline_medians(&doc);
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for r in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == &r.name) else {
            continue;
        };
        let ratio = r.median_ns / base;
        let verdict = if ratio > CHECK_FACTOR { "FAIL" } else { "ok" };
        println!(
            "check {:<44} baseline {:>10}  now {:>10}  ratio {ratio:.2}x  {verdict}",
            r.name,
            fmt_ns(*base),
            fmt_ns(r.median_ns),
        );
        rows.push((r.name.clone(), *base, r.median_ns, ratio));
    }
    if rows.is_empty() {
        eprintln!("bench: no benches matched the baseline in {path}");
        std::process::exit(1);
    }
    let failures: Vec<&(String, f64, f64, f64)> = rows
        .iter()
        .filter(|(_, _, _, r)| *r > CHECK_FACTOR)
        .collect();
    if !failures.is_empty() {
        // Repeat the full table on stderr, slowest-relative first, so the
        // tail of a CI log is diagnosable without scrolling back.
        let mut sorted: Vec<&(String, f64, f64, f64)> = rows.iter().collect();
        sorted.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite"));
        eprintln!(
            "bench: {} regression(s) beyond {CHECK_FACTOR}x:",
            failures.len()
        );
        eprintln!(
            "{:<44} {:>12} {:>12} {:>8}  verdict",
            "bench", "baseline", "now", "ratio"
        );
        for (name, base, now, ratio) in sorted {
            eprintln!(
                "{name:<44} {:>12} {:>12} {ratio:>7.2}x  {}",
                fmt_ns(*base),
                fmt_ns(*now),
                if *ratio > CHECK_FACTOR { "FAIL" } else { "ok" },
            );
        }
        std::process::exit(1);
    }
    eprintln!(
        "bench: {} benches within {CHECK_FACTOR}x of baseline",
        rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(args: &[&str]) -> Config {
        Config::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_are_not_filters() {
        // cargo forwards `--bench` to harness=false binaries; historically
        // it was treated as a filter that matched nothing.
        let c = cfg(&["--bench", "event_queue"]);
        assert_eq!(c.filters, vec!["event_queue".to_string()]);
        assert!(!c.list);
        let c = cfg(&["--list"]);
        assert!(c.list && c.filters.is_empty());
        let c = cfg(&["--json", "out.json", "--check", "base.json", "engine"]);
        assert_eq!(c.json.as_deref(), Some("out.json"));
        assert_eq!(c.check.as_deref(), Some("base.json"));
        assert_eq!(c.filters, vec!["engine".to_string()]);
        let c = cfg(&["--baseline-covers", "BENCH_netsim.json"]);
        assert_eq!(c.baseline_covers.as_deref(), Some("BENCH_netsim.json"));
        assert!(c.filters.is_empty());
    }

    #[test]
    fn empty_filter_matches_everything() {
        let c = cfg(&[]);
        assert!(c.matches("anything/at_all"));
        let c = cfg(&["queue"]);
        assert!(c.matches("event_queue/fire"));
        assert!(!c.matches("transport_flow/run"));
    }

    #[test]
    fn adaptive_units() {
        assert_eq!(fmt_ns(312.0), "312 ns");
        assert_eq!(fmt_ns(4_560.0), "4.56 µs");
        assert_eq!(fmt_ns(7_890_000.0), "7.89 ms");
        assert_eq!(fmt_ns(1_234_000_000.0), "1.234 s");
    }

    #[test]
    fn json_roundtrip_and_baseline_extraction() {
        let results = vec![BenchResult {
            name: "g/one".to_string(),
            median_ns: 1500.0,
            mean_ns: 1600.0,
            min_ns: 1400.0,
            p95_ns: 1900.0,
            samples: 10,
            elements: Some(1000),
        }];
        let text = results_to_json(&results);
        let doc = json::parse(&text).expect("own output parses");
        let medians = baseline_medians(&doc);
        assert_eq!(medians, vec![("g/one".to_string(), 1500.0)]);
        assert_eq!(
            doc.get("schema"),
            Some(&json::Value::String("halfback-bench-v1".to_string()))
        );
        // elements_per_sec = 1000 / 1.5µs ≈ 666.7M/s
        let eps = results[0].elements_per_sec().unwrap();
        assert!((eps - 1000.0 / 1.5e-6).abs() < 1.0);
    }

    #[test]
    fn min_of_block_medians_resists_a_noise_burst() {
        // A co-tenant burst inflating one block of three leaves the
        // estimator at the quiet blocks' median.
        let quiet_then_burst = [10.0, 10.0, 11.0, 10.0, 11.0, 10.0, 90.0, 95.0, 100.0];
        assert_eq!(min_of_block_medians(&quiet_then_burst, 3), 10.0);
        // A whole-run median over the same samples would report 11.0 and a
        // burst-first ordering would drag it higher still.
        let burst_then_quiet = [90.0, 95.0, 100.0, 10.0, 10.0, 11.0, 10.0, 11.0, 10.0];
        assert_eq!(min_of_block_medians(&burst_then_quiet, 3), 10.0);
        // Degenerate shapes: fewer samples than blocks, empty input.
        assert_eq!(min_of_block_medians(&[42.0, 7.0], 3), 7.0);
        assert_eq!(min_of_block_medians(&[], 3), 0.0);
        // k=1 is the plain median of all samples.
        assert_eq!(min_of_block_medians(&[5.0, 1.0, 9.0], 1), 5.0);
        // Uneven split (n=10, k=3 → blocks of 4/3/3).
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(min_of_block_medians(&v, 3), 3.0);
    }

    #[test]
    fn schema_validation_accepts_own_output_and_rejects_malformed() {
        let good = results_to_json(&[BenchResult {
            name: "g/one".to_string(),
            median_ns: 1500.0,
            mean_ns: 1600.0,
            min_ns: 1400.0,
            p95_ns: 1900.0,
            samples: 10,
            elements: None,
        }]);
        let doc = json::parse(&good).unwrap();
        assert!(validate_baseline_schema(&doc).is_ok());

        let wrong_tag = r#"{"schema":"halfback-bench-v2","results":[]}"#;
        let err = validate_baseline_schema(&json::parse(wrong_tag).unwrap()).unwrap_err();
        assert!(err.contains("halfback-bench-v1"), "{err}");

        let no_results = r#"{"schema":"halfback-bench-v1"}"#;
        let err = validate_baseline_schema(&json::parse(no_results).unwrap()).unwrap_err();
        assert!(err.contains("results"), "{err}");

        let bad_entry =
            r#"{"schema":"halfback-bench-v1","results":[{"name":"g/one","median_ns":"fast"}]}"#;
        let err = validate_baseline_schema(&json::parse(bad_entry).unwrap()).unwrap_err();
        assert!(err.contains("median_ns"), "{err}");

        let no_name = r#"{"schema":"halfback-bench-v1","results":[{"median_ns":1.0}]}"#;
        let err = validate_baseline_schema(&json::parse(no_name).unwrap()).unwrap_err();
        assert!(err.contains("name"), "{err}");
    }

    #[test]
    fn filter_hit_tracking_flags_dead_filters() {
        let mut b = Bench {
            config: cfg(&["event_queue", "no_such_bench"]),
            results: Vec::new(),
            registered_matches: false,
            filter_hits: vec![false; 2],
            collect_only: true,
            collected: Vec::new(),
        };
        b.benchmark_group("event_queue")
            .bench_function("fire", || {})
            .finish();
        b.benchmark_group("queue_ops")
            .bench_function("cycle", || {})
            .finish();
        assert_eq!(b.filter_hits, vec![true, false]);
        // Collect-only mode registers only the selected names, runs nothing.
        assert_eq!(b.collected, vec!["event_queue/fire".to_string()]);
        assert!(b.results.is_empty());
    }
}
