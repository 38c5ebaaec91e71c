//! `ecosched-e2e-bench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints its metrics, one per
//! line, then one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! repetitions, reports the per-layer metrics and writes the spans to
//! `bench/out/<workload>.trace.ndjson`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

mod calibrate;
mod clock;
mod harness;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use harness::{Args, Outcome};

const OUT_DIR: &str = "bench/out";

fn usage(detail: &str) -> String {
    format!(
        "{detail}\nusage: ecosched-e2e-bench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        workloads::NAMES.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: harness::PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| usage("bad --seed"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| usage("bad --seconds"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                }
            }
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(usage(&format!("unknown workload {:?}", parsed.workload)));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(usage("--seconds must be in (0, 600]"));
    }
    Ok(parsed)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed() == 0,
        outcome.attempted,
        outcome.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(workloads::service::DAEMON_FLAG) {
        let (data_dir, listen) = (argv.nth(1), argv.next());
        let served = match (data_dir, listen) {
            (Some(data_dir), Some(listen)) => workloads::service::daemon_main(&data_dir, &listen),
            _ => Err("the daemon needs a data directory and an endpoint".into()),
        };
        return match served {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let scratch =
        PathBuf::from(OUT_DIR).join(format!("tmp-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let build = |setup: usize| {
        workloads::build(
            &args.workload,
            args.seed,
            &scratch.join(format!("setup-{setup}")),
        )
        .expect("the workload name was checked")
    };
    let trace_path = args
        .trace
        .then(|| PathBuf::from(OUT_DIR).join(format!("{}.trace.ndjson", args.workload)));
    let outcome = harness::run(
        build,
        workloads::clock(&args.workload),
        &args,
        process_start,
        trace_path.as_deref(),
    );
    let _ = std::fs::remove_dir_all(&scratch);

    for m in &outcome.metrics {
        println!(
            "{}/{} {} {} (n={})",
            args.workload, m.name, m.value, m.unit, m.samples
        );
    }
    for failure in &outcome.failures {
        eprintln!("{}: FAILED CHECK: {failure}", args.workload);
    }
    eprintln!(
        "{}: seed {} hash {} — repetitions of (wall, reference) {:.2?} s, {} failed of {} attempted",
        args.workload,
        args.seed,
        outcome.hash,
        outcome.rep_seconds,
        outcome.failed(),
        outcome.attempted
    );
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
