//! The repository benchmark: end-to-end and per-layer metrics of the
//! hipacc reproduction on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_small|stream_fused|stream_large|compile_paper|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics, measured with tracing off; with `--trace 1` it
//! carries the per-layer metrics of a separate traced run, whose Chrome
//! trace is written under `.perfbench_out/`. `--workload all` runs each
//! workload in its own process and prints one table. Workload rationale
//! and predictions are in `perfbench/README.md`.

mod ledger;
mod output;
mod paper;
mod stats;
mod stream;

use output::{commit, peak_rss_mb, Outcome};
use std::process::ExitCode;

/// The end-to-end metrics (`BENCHMARK.json` `end_to_end`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("model_gpu_ms", "model_ms"),
    ("gen_loc", "lines"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.op_total_us", "us"),
    ("core.compile_spec_us", "us"),
    ("core.fingerprint_us", "us"),
    ("core.fingerprint_bytes", "bytes"),
    ("core.cache_lookup_us", "us"),
    ("core.launch_spec_us", "us"),
    ("core.estimate_us", "us"),
    ("core.supervisor_us", "us"),
    ("core.unattributed_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.cache_misses", "count"),
    ("core.fusion_plan_us", "us"),
    ("sim.launch_us", "us"),
    ("sim.mpix_per_s", "Mpix/s"),
    ("sim.global_loads", "count"),
    ("sim.tex_fetches", "count"),
    ("sim.shared_loads", "count"),
    ("sim.shared_stores", "count"),
    ("sim.barriers", "count"),
    ("runtime.sequential_fps", "1/s"),
    ("runtime.pipeline_speedup", "ratio"),
    ("runtime.queue_max_depth", "count"),
    ("codegen.compile_us", "us"),
    ("codegen.compile_fused_us", "us"),
    ("codegen.explore_us", "us"),
    ("analysis.verify_us", "us"),
    ("ir.opt_fires", "count"),
    ("hwmodel.occupancy_mean", "ratio"),
    ("trace.overhead_pct", "%"),
    ("run.error_rate", "ratio"),
];

/// The benchmark's workloads (`BENCHMARK.json` `workloads`).
pub const WORKLOADS: [&str; 2] = ["stream_fused", "compile_paper"];

/// Workloads that run on request and under `all` but are not part of
/// `BENCHMARK.json`: see "Steadiness" in `perfbench/README.md`.
pub const EXTRA_WORKLOADS: [&str; 2] = ["stream_small", "stream_large"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let known = WORKLOADS.iter().chain(&EXTRA_WORKLOADS);
    if args.workload != "all" && !known.clone().any(|w| *w == args.workload) {
        return Err(format!(
            "--workload must be one of {} or all",
            known.copied().collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload in this process and return its outcome, metrics
/// not yet narrowed to the end-to-end or per-layer set.
fn run_workload(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", args.trace as u8);
    out.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    out.note("commit", commit());
    let w = match args.workload.as_str() {
        "stream_small" => Some(&stream::STREAM_SMALL),
        "stream_fused" => Some(&stream::STREAM_FUSED),
        "stream_large" => Some(&stream::STREAM_LARGE),
        _ => None,
    };
    match w {
        Some(w) => stream::run(w, args.seed, args.seconds, args.trace, &mut out)?,
        None => paper::run(args.seed, args.seconds, args.trace, &mut out)?,
    }
    let rss = peak_rss_mb().ok_or("getrusage failed")?;
    out.push("peak_rss_mb", rss, "MB", 1);
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.note("error_rate", rate);
    out.push("run.error_rate", rate, "ratio", out.attempted as usize);
    if out.attempted == 0 {
        out.problem("nothing was attempted");
    }
    Ok(out)
}

/// Render, validate and write the traced run's Chrome trace.
fn write_trace(args: &Args, out: &mut Outcome) {
    let trace = hipacc_profile::chrome::trace_json(&out.spans);
    match hipacc_profile::chrome::validate(&trace) {
        Ok(events) => out.note("trace_events", events),
        Err(e) => return out.problem(format!("the Chrome trace does not validate: {e}")),
    }
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace)) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
}

/// `--workload all`: each workload in a child process of this binary,
/// then one table of every metric with its unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS.iter().chain(&EXTRA_WORKLOADS) {
        let result = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let text = match result {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("{w}: exited with {}", o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("{w}: {e}");
                ok = false;
                continue;
            }
        };
        let line = text.lines().last().unwrap_or_default();
        let Ok(doc) = hipacc_profile::json::parse(line) else {
            eprintln!("{w}: unreadable result line");
            ok = false;
            continue;
        };
        let obj = doc.as_object().expect("result is an object");
        println!(
            "{w}: correct={} attempted={} failed={}",
            obj["correct"] == hipacc_profile::json::Value::Bool(true),
            obj["attempted"].as_number().unwrap_or(0.0),
            obj["failed"].as_number().unwrap_or(0.0)
        );
        for (name, m) in obj["metrics"].as_object().into_iter().flatten() {
            let m = m.as_object().expect("metric is an object");
            println!(
                "  {name:<28} {:>16.6} {}",
                m["value"].as_number().unwrap_or(f64::NAN),
                m["unit"].as_str().unwrap_or("?")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut out = match run_workload(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        write_trace(&args, &mut out);
    }
    out.validate();
    println!("{}", out.record_json());
    if args.trace {
        out.select(&PER_LAYER, true);
    } else {
        out.select(&END_TO_END, false);
    }
    for p in &out.problems {
        eprintln!("perfbench: {}: {p}", args.workload);
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_profile::json::{parse, Value};
    use std::sync::Mutex;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
    }

    fn entries<'a>(
        doc: &'a Value,
        key: &str,
    ) -> Vec<&'a std::collections::BTreeMap<String, Value>> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_object().unwrap())
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = entries(&doc, key)
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            assert_eq!(listed, table, "{key}");
            for (name, unit) in table {
                assert!(
                    output::valid_name(name) && output::valid_unit(unit),
                    "{name}"
                );
            }
        }
        let mut largest = 0.0f64;
        for m in entries(&doc, "end_to_end") {
            let bound = m["bound"].as_number().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            largest = largest.max(bound);
        }
        let setup = entries(&doc, "end_to_end")
            .into_iter()
            .find(|m| m["name"].as_str() == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup["unit"].as_str(), Some("s"));
        assert_eq!(setup["better"].as_str(), Some("lower"));
        assert_eq!(setup["bound"].as_number(), Some(largest));
    }

    /// Smoke runs share two cores; run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// A short run of `workload` in both modes with every correctness
    /// check on. End-to-end metrics must be non-zero.
    fn smoke(workload: &str) {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        for trace in [false, true] {
            let args = Args {
                workload: workload.into(),
                seed: 5,
                seconds: 0.5,
                trace,
            };
            let mut out = run_workload(&args).expect("workload runs");
            if trace {
                write_trace(&args, &mut out);
            }
            out.validate();
            out.select(if trace { &PER_LAYER } else { &END_TO_END }, trace);
            assert!(out.correct, "{workload} trace={trace}: {:?}", out.problems);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
                }
            }
            let line = out.result_json();
            let doc = parse(&line).expect("result line parses");
            let metrics = doc.as_object().unwrap()["metrics"].as_object().unwrap();
            assert_eq!(
                metrics.len(),
                if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
        }
    }

    #[test]
    fn stream_small_smoke() {
        smoke("stream_small");
    }

    #[test]
    fn stream_fused_smoke() {
        smoke("stream_fused");
    }

    #[test]
    fn stream_large_smoke() {
        smoke("stream_large");
    }

    #[test]
    fn compile_paper_smoke() {
        smoke("compile_paper");
    }
}
