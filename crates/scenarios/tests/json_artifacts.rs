//! Every JSON artifact parses with `netsim::json::parse` and reads back as
//! the values it was written from: a rendered `manifest.json`, a small
//! run's `weather.json`, a telemetry JSONL file, every line of the committed
//! trace golden, and the committed `BENCH_netsim.json`.

use bench::{results_to_json, BenchResult};
use netsim::json::{parse, Value};
use netsim::shard::WindowTelemetry;
use netsim::SimDuration;
use scenarios::manifest::{ExperimentEntry, Manifest};
use scenarios::trace::{run_trace, TraceSpec};
use scenarios::weather::{run_weather, WeatherConfig, WeatherRunOptions};
use scenarios::Protocol;
use std::path::{Path, PathBuf};

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Number(n)) => *n,
        other => panic!("{key}: not a number: {other:?}"),
    }
}

fn string<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: not a string: {other:?}"),
    }
}

fn array<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: not an array: {other:?}"),
    }
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    array(v, key)
        .iter()
        .map(|s| match s {
            Value::String(s) => s.clone(),
            other => panic!("{key}: not a string element: {other:?}"),
        })
        .collect()
}

/// The object's keys, sorted.
fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(m) => m.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn sorted(mut k: Vec<&str>) -> Vec<&str> {
    k.sort_unstable();
    k
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("halfback-json-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn manifest() {
    let m = Manifest {
        scale: "quick".into(),
        schemes: vec!["Halfback".into(), "TCP\t\"10\"".into()],
        experiments: vec![ExperimentEntry {
            id: "fig6\r\n".into(),
            figures: vec!["fig6".into(), "fig5\\".into()],
            jobs_run: 3,
            events: 1 << 40,
            virtual_ns: 9_000_000_001,
            sketch_mem_bytes: 14_000,
            wall_s: 1.2345,
        }],
        jobs: 2,
        shards: 4,
        peak_rss_mb: 17,
    };
    let doc = parse(&m.render_json()).expect("manifest.json parses");
    assert_eq!(
        keys(&doc),
        ["experiments", "machine", "scale", "schema", "schemes"]
    );
    assert_eq!(string(&doc, "schema"), "halfback-manifest-v1");
    assert_eq!(string(&doc, "scale"), m.scale);
    assert_eq!(strings(&doc, "schemes"), m.schemes);
    let [e] = array(&doc, "experiments") else {
        panic!("one experiment")
    };
    let want = &m.experiments[0];
    assert_eq!(
        keys(e),
        sorted(vec![
            "id",
            "figures",
            "jobs_run",
            "events",
            "virtual_ns",
            "sketch_mem_bytes",
            "wall_s"
        ])
    );
    assert_eq!(string(e, "id"), want.id);
    assert_eq!(strings(e, "figures"), want.figures);
    assert_eq!(num(e, "jobs_run"), want.jobs_run as f64);
    assert_eq!(num(e, "events"), want.events as f64);
    assert_eq!(num(e, "virtual_ns"), want.virtual_ns as f64);
    assert_eq!(num(e, "sketch_mem_bytes"), want.sketch_mem_bytes as f64);
    assert_eq!(num(e, "wall_s"), 1.234, "three decimals");
    let machine = doc.get("machine").unwrap();
    assert_eq!(keys(machine), ["jobs", "peak_rss_mb", "shards"]);
    assert_eq!(num(machine, "jobs"), 2.0);
    assert_eq!(num(machine, "shards"), 4.0);
    assert_eq!(num(machine, "peak_rss_mb"), 17.0);
}

/// The configuration of `weather`'s own unit tests: one simulated minute.
fn weather() {
    let cfg = WeatherConfig {
        protocol: Protocol::Halfback,
        utilization: 0.3,
        duration: SimDuration::from_secs(60),
        window: SimDuration::from_secs(10),
        warmup: SimDuration::from_secs(10),
        checkpoint_every: 2,
        amplitude: 0.3,
        period: SimDuration::from_secs(120),
        host_pairs: 2,
        seed: 7,
    };
    let dir = scratch("weather");
    let out = run_weather(&cfg, &dir, &WeatherRunOptions::default()).unwrap();
    let text = std::fs::read_to_string(dir.join("weather.json")).unwrap();
    let doc = parse(&text).expect("weather.json parses");
    let round = |x: f64, digits: i32| {
        let scale = 10f64.powi(digits);
        (x * scale).round() / scale
    };
    assert_eq!(
        keys(&doc),
        sorted(vec![
            "schema",
            "scheme",
            "utilization",
            "amplitude",
            "sim_hours",
            "windows",
            "checkpoints",
            "flows_started",
            "flows_completed",
            "flows_aborted",
            "flows_censored",
            "receivers_reaped",
            "flows_per_hour",
            "fct_ms_mean",
            "fct_ms_p50",
            "fct_ms_p99",
            "sketch_mem_bytes",
            "machine",
        ])
    );
    assert_eq!(string(&doc, "schema"), "halfback-weather-v1");
    assert_eq!(string(&doc, "scheme"), cfg.protocol.name());
    assert_eq!(num(&doc, "utilization"), cfg.utilization);
    assert_eq!(num(&doc, "amplitude"), cfg.amplitude);
    assert_eq!(num(&doc, "sim_hours"), round(60.0 / 3600.0, 4));
    for (key, want) in [
        ("windows", out.windows),
        ("checkpoints", out.checkpoints),
        ("flows_started", out.started),
        ("flows_completed", out.completed),
        ("flows_aborted", out.aborted),
        ("flows_censored", out.censored),
        ("receivers_reaped", out.reaped),
        ("sketch_mem_bytes", out.sketch_mem_bytes as u64),
    ] {
        assert_eq!(num(&doc, key), want as f64, "{key}");
    }
    assert!(out.started > 0);
    assert_eq!(num(&doc, "flows_per_hour"), round(out.flows_per_hour, 1));
    assert_eq!(num(&doc, "fct_ms_mean"), round(out.fct_ms.0, 3));
    assert_eq!(num(&doc, "fct_ms_p50"), round(out.fct_ms.1, 3));
    assert_eq!(num(&doc, "fct_ms_p99"), round(out.fct_ms.2, 3));
    let machine = doc.get("machine").unwrap();
    assert_eq!(keys(machine), ["peak_rss_mb"]);
    assert!(num(machine, "peak_rss_mb") > 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn telemetry() {
    let records: Vec<WindowTelemetry> = (0..6u64)
        .map(|i| WindowTelemetry {
            window: i / 2,
            part: (i % 2) as usize,
            w_end_ns: 1_000_000 * (i / 2 + 1),
            events: 10 + i,
            deposited: i,
            injected: 2 * i,
            mailbox_max: 3 * i,
            wheel_depth: 4 * i,
            arena_live: 5 * i,
            arena_hiwater: 6 * i,
            wall_barrier_ns: 12_345 + i,
            wall_window_ns: 67_890 + i,
        })
        .collect();
    let dir = scratch("telemetry");
    let path = dir.join("t.jsonl");
    scenarios::telemetry::write_jsonl(&path, "planetlab100k", 2, &records).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text
        .lines()
        .map(|l| parse(l).expect("telemetry line parses"));
    let header = lines.next().unwrap();
    assert_eq!(
        keys(&header),
        ["experiment", "kind", "parts", "schema", "windows"]
    );
    assert_eq!(string(&header, "schema"), "halfback-telemetry-v1");
    assert_eq!(string(&header, "kind"), "run");
    assert_eq!(string(&header, "experiment"), "planetlab100k");
    assert_eq!(num(&header, "parts"), 2.0);
    assert_eq!(num(&header, "windows"), 3.0);
    let body: Vec<Value> = lines.collect();
    assert_eq!(body.len(), records.len());
    for (line, t) in body.iter().zip(&records) {
        assert_eq!(string(line, "kind"), "window");
        for (key, want) in [
            ("window", t.window),
            ("part", t.part as u64),
            ("w_end_ns", t.w_end_ns),
            ("events", t.events),
            ("deposited", t.deposited),
            ("injected", t.injected),
            ("mailbox_max", t.mailbox_max),
            ("wheel_depth", t.wheel_depth),
            ("arena_live", t.arena_live),
            ("arena_hiwater", t.arena_hiwater),
        ] {
            assert_eq!(num(line, key), want as f64, "{key}");
        }
        assert_eq!(keys(line).len(), 12, "kind, ten counts and wall");
        let wall = line.get("wall").unwrap();
        assert_eq!(keys(wall), ["barrier_ns", "window_ns"]);
        assert_eq!(num(wall, "barrier_ns"), t.wall_barrier_ns as f64);
        assert_eq!(num(wall, "window_ns"), t.wall_window_ns as f64);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed trace golden, against a fresh run of the spec that wrote
/// it (`default_trace_is_byte_identical_to_golden` pins the bytes).
fn trace_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace/trace.jsonl");
    let text = std::fs::read_to_string(golden).unwrap();
    let out = run_trace(&TraceSpec::default()).unwrap();
    let lines: Vec<Value> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    let (summary, events) = lines.split_last().unwrap();
    assert_eq!(events.len(), out.events);
    let mut last_t = 0.0;
    for line in events {
        let t = num(line, "t_ns");
        assert!(t >= last_t, "merged in time order");
        last_t = t;
        let event = string(line, "event");
        let fields = match string(line, "src") {
            "net" => {
                let place = if event == "deliver" { "node" } else { "link" };
                vec!["t_ns", "src", "event", place, "packet", "size"]
            }
            "snd" | "rcv" => {
                let mut k = vec!["t_ns", "src", "flow", "event"];
                k.extend(match event {
                    "syn_sent" => &["attempt"][..],
                    "established" => &["window"],
                    "segment_sent" => &["seg", "class", "wire_bytes"],
                    "ack_received" => &["cum", "newly_acked_bytes"],
                    "cwnd_update" => &["cwnd", "ssthresh"],
                    "pacing_started" => &["interval_ns"],
                    "ropr_meet" => &["cursor", "cum_ack", "batch_segs"],
                    "delivered" => &["seg", "cum", "delivered_bytes"],
                    "completed" => &["fct_ns"],
                    other => panic!("unexpected flow event {other}"),
                });
                k
            }
            other => panic!("unexpected stream {other}"),
        };
        assert_eq!(keys(line), sorted(fields), "{line:?}");
    }
    let meet = out.meet.expect("Halfback meets the ACK stream");
    assert_eq!(string(summary, "src"), "run");
    assert_eq!(string(summary, "event"), "meet_point");
    assert_eq!(num(summary, "flow"), 1.0);
    assert_eq!(num(summary, "cursor"), f64::from(meet.cursor));
    assert_eq!(num(summary, "cum_ack"), f64::from(meet.cum_ack));
    assert_eq!(num(summary, "batch_segs"), f64::from(meet.batch_segs));
    assert_eq!(
        num(summary, "fraction"),
        (meet.fraction * 1e4).round() / 1e4
    );
}

/// The committed baseline: each entry, read into the struct the bench
/// writes it from and written again, reads back the same.
fn bench_baseline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_netsim.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).expect("BENCH_netsim.json parses");
    assert_eq!(string(&doc, "schema"), "halfback-bench-v1");
    let env = doc.get("env").unwrap();
    assert_eq!(keys(env), ["arch", "cpus", "os", "profile"]);
    let entries = array(&doc, "results");
    assert!(!entries.is_empty());
    for entry in entries {
        let r = BenchResult {
            name: string(entry, "name").to_string(),
            median_ns: num(entry, "median_ns"),
            mean_ns: num(entry, "mean_ns"),
            min_ns: num(entry, "min_ns"),
            p95_ns: num(entry, "p95_ns"),
            samples: num(entry, "samples") as usize,
            elements: entry.get("elements").map(|_| num(entry, "elements") as u64),
        };
        let again = parse(&results_to_json(std::slice::from_ref(&r))).unwrap();
        let [again] = array(&again, "results") else {
            panic!("one result")
        };
        assert_eq!(keys(entry), keys(again), "{}", r.name);
        for key in keys(entry) {
            if key == "elements_per_sec" {
                // Recomputed from the rounded median: equal to ~1e-12.
                let (a, b) = (num(entry, key), num(again, key));
                assert!((a - b).abs() <= a * 1e-9, "{}: {a} vs {b}", r.name);
            } else {
                assert_eq!(entry.get(key), again.get(key), "{}: {key}", r.name);
            }
        }
    }
}

#[test]
fn every_json_artifact_parses_into_the_fields_it_was_written_from() {
    manifest();
    weather();
    telemetry();
    trace_golden();
    bench_baseline();
}
