//! The repository benchmark: runs one workload, checks its outputs and
//! prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-glove --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones of a traced session. The full
//! result (host fingerprint, samples, details) is written to
//! `perfbench/results/<workload>-seed<seed>-trace<t>.json`, and a traced
//! run writes its spans to `...-spans.jsonl` beside it. See README.md.
// Like the `bench` crate, this package is a wall-clock domain: its timings
// never reach tuning results (see clippy.toml / lint R3).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod host;
mod json;
mod offline;
mod probe;
mod serving;
mod stats;
mod workloads;

use json::Json;
use probe::self_times;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Metric, Plan, Report};

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-glove|mixed-rw-serving> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn spans_jsonl(report: &Report) -> String {
    let mut out = String::new();
    for (phase, spans) in &report.spans {
        let selfs = self_times(spans);
        for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
            let line = Json::obj(vec![
                ("phase", Json::str(phase)),
                ("id", Json::Int(i as u64)),
                ("name", Json::str(s.name)),
                ("label", s.label.map_or(Json::Null, Json::str)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                ("step", Json::Int(s.step as u64)),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                ("self_s", Json::Num(self_s)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
    }
    out
}

fn write_results(dir: &Path, stem: &str, full: &Json, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{stem}.json")), full.render() + "\n")?;
    if !report.spans.is_empty() {
        std::fs::write(dir.join(format!("{stem}-spans.jsonl")), spans_jsonl(report))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, false);
    let report = workloads::run(&plan, args.seed, args.seconds as f64, args.trace);
    let correct = report.errors.is_empty() && report.failed == 0;
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics = if args.trace { &report.per_layer } else { &report.end_to_end };
    for m in metrics {
        eprintln!("{:<34} {:>22} {}", m.name, m.value, m.unit);
    }

    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(&manifest);
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let mut full = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::fingerprint(root)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("errors", Json::Arr(report.errors.iter().map(|e| Json::str(e)).collect())),
        ("end_to_end", metrics_json(&report.end_to_end)),
        ("per_layer", metrics_json(&report.per_layer)),
    ];
    let details: Vec<(&str, Json)> =
        report.details.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    full.extend(details);
    if let Err(e) = write_results(&manifest.join("results"), &stem, &Json::obj(full), &report) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }

    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{}", line.render()).and_then(|_| stdout.flush()).is_err() {
        return ExitCode::FAILURE;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
