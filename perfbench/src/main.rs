//! The rmrw benchmark: four workloads over the code users call, with a
//! traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for what each workload and metric means.

mod asyncw;
mod closed;
mod hist;
mod hot;
mod kv;
mod openloop;
mod probes;
mod report;
mod rng;
mod trace;
mod verify;

use report::{Metrics, Outcome};
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["kv-zipf", "hot-bravo", "async-fig1-open", "verify"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Shared tail of every traced run: the layer ladder, the tracing
/// overhead report, and the kept spans written out as a Chrome trace.
pub fn finish_trace<'a>(
    workload: &str,
    seed: u64,
    m: &mut Metrics,
    tracers: impl Iterator<Item = &'a Tracer>,
) {
    let rungs = probes::ladder();
    probes::print_ladder(&rungs);
    m.extend(rungs);
    println!(
        "tracing overhead: ops_per_s untraced {:.0} vs traced {:.0}",
        m["trace.untraced_ops_per_s"], m["trace.traced_ops_per_s"]
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"));
    let tracers: Vec<&Tracer> = tracers.collect();
    match trace::write_chrome_trace(&path, &tracers) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
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
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let out: Outcome = match args.workload.as_str() {
        "kv-zipf" => kv::run(&kv::KvConfig::standard(), seed, secs, traced),
        "hot-bravo" => hot::run(&hot::HotConfig::standard(), seed, secs, traced),
        "async-fig1-open" => asyncw::run(&asyncw::AsyncConfig::standard(), seed, secs, traced),
        "verify" => verify::run(seed, secs, traced),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let declared = if traced { report::PER_LAYER } else { report::END_TO_END };
    println!(
        "{} ({} threads available): {} attempted, {} errors",
        args.workload,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        out.attempted,
        out.errors
    );
    for (name, unit) in declared {
        if let Some(v) = out.metrics.get(name) {
            println!("  {name:<26} {v:>16.4} {unit}");
        }
    }
    match report::result_line(&out, declared) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
