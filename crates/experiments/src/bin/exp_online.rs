//! E15 — online metascheduling on the discrete-event engine: ALP vs AMP
//! under continuous Poisson load, calm and churn.
//!
//! Usage: `exp_online [--seed S] [--cycles C] [--jobs J] [--churn P]
//! [--mean-gap G] [--no-coalesce] [--saturate]
//! [--trace FILE.swf [--trace-scale SECS_PER_TICK]]`.
//!
//! The grid prints, per cell, an `event_log_hash` line and a
//! `report_hash` line (the FNV-1a 64 of the report's JSON: what was
//! decided, which the log of inputs and timings does not pin). The whole
//! stdout is seeded and pinned (`scripts/check_pins.sh`).
//!
//! `--trace FILE.swf` replays a Standard Workload Format trace (E16)
//! instead of the synthetic grid: each record's submission time,
//! processor count, and requested runtime drive external submissions
//! into the engine, once per selector (ALP and AMP), with the replay
//! table and per-selector `event_log_hash` and `report_hash` lines.
//! `--trace-scale` maps trace seconds to engine ticks (default 1 second
//! per tick; anything but a positive, finite number exits 2).
//!
//! `--saturate` runs the E15 saturation sweep instead of the grid: the
//! calm scenario at a descending ladder of mean inter-arrival gaps, the
//! job count scaled so the stream spans the horizon at every gap. The
//! end-of-run backlog column locates the knee where the market stops
//! absorbing offered load — the reading that sizes `ecosched-serve`'s
//! default admission bound (`--max-backlog`).
//!
//! `--no-coalesce` disables the engine's cycle-commit slot coalescing —
//! the fragmentation A/B baseline for EXPERIMENTS.md E15.
//!
//! `--mean-gap G` sets the Poisson mean inter-arrival gap in ticks
//! (default 10), scaling the offered load without changing the job count.
//!
//! Crash-recovery mode runs one labelled cell (`--scenario calm|churn`,
//! `--algo ALP|AMP`) instead of the grid:
//!
//! * `--single` — run it uninterrupted and print its final
//!   `event_log_hash`/`report` lines;
//! * `--snapshot-every N --snapshot-path P` — also write a snapshot of
//!   the full resumable state to `P` after every N-th cycle commit;
//! * `--kill-at-event K` — simulate a crash: stop after K events,
//!   leaving the latest snapshot at `P` and the surviving event log at
//!   `P.log.json`;
//! * `--resume P` — restore from the snapshot at `P`, replay the
//!   surviving log suffix (divergence aborts with the offending event
//!   pair), run to completion, and print the same final lines — which,
//!   by the determinism contract, are byte-identical to the
//!   uninterrupted run's. CI kills a run mid-flight, resumes it, and
//!   diffs exactly these lines.
//!
//! `--metrics-dump PATH` (single-cell, resume and trace modes) attaches a
//! live metrics recorder to the engine and writes the final registry as
//! JSON to `PATH` next to the printed report — in trace mode, which runs
//! two engines, to `PATH.ALP` and `PATH.AMP`. The recorder is
//! observe-only: the hash and report lines are byte-identical with or
//! without it.

use std::path::{Path, PathBuf};

use ecosched_engine::{
    engine_obs, fnv1a_64, Engine, EngineObs, EngineReport, Event, Log, LogEntry,
};
use ecosched_experiments::online::{
    engine_config, online_table, run_online, run_saturation, saturation_table, OnlineConfig,
    SATURATION_GAPS,
};
use ecosched_experiments::trace::{run_trace, trace_config, trace_table};
use ecosched_experiments::{arg_value, reject_unknown_flags};
use ecosched_obs::Recorder;
use ecosched_persist::{decode_snapshot, resume_from, snapshot};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::swf::parse_swf;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("exp_online: {message}");
    std::process::exit(2);
}

fn print_cell(scenario: &str, algo: &str, report: &EngineReport) {
    println!(
        "event_log_hash scenario={scenario} algo={algo} hash={}",
        report.log_hash
    );
    println!(
        "report scenario={scenario} algo={algo} {}",
        report.to_json()
    );
}

/// The FNV-1a 64 of the report's canonical JSON: pins what was decided
/// (spend, waits, utilisation), which the event-log hash does not.
fn report_hash(report: &EngineReport) -> String {
    format!("{:016x}", fnv1a_64(report.to_json().as_bytes()))
}

/// The surviving-log path that rides along with a snapshot file.
fn log_path(snapshot: &Path) -> PathBuf {
    PathBuf::from(format!("{}.log.json", snapshot.display()))
}

/// A live recorder for one single-cell engine when `--metrics-dump` was
/// given; [`dump_metrics`] writes its registry out at the end.
fn metrics_recorder(dump: Option<&Path>) -> EngineObs {
    dump.map_or_else(EngineObs::off, |_| engine_obs())
}

/// Writes the final registry as JSON next to the report.
fn dump_metrics(dump: Option<&Path>, obs: &EngineObs) {
    let (Some(path), Some(registry)) = (dump, obs.recorder().and_then(Recorder::registry)) else {
        return;
    };
    if let Err(e) = std::fs::write(path, registry.render_json()) {
        fail(format!("writing metrics dump {}: {e}", path.display()));
    }
    eprintln!("metrics registry dumped to {}", path.display());
}

/// Runs one cell, optionally snapshotting every N-th cycle commit and
/// optionally dying (like a crash would) after `kill_at` events.
fn single_flow<S: SlotSelector + Copy>(
    engine: &Engine<S>,
    scenario: &str,
    algo: &str,
    seed: u64,
    snapshot_every: u32,
    snapshot_path: Option<&Path>,
    kill_at: Option<u64>,
) {
    let mut state = engine.start(seed);
    let mut snapshots = 0u32;
    loop {
        if let Some(k) = kill_at {
            if state.events_processed() as u64 >= k {
                let path = snapshot_path
                    .unwrap_or_else(|| fail("--kill-at-event requires --snapshot-path"));
                let survivors = log_path(path);
                if let Err(e) = std::fs::write(&survivors, state.log().to_json()) {
                    fail(format!("writing surviving log: {e}"));
                }
                eprintln!(
                    "killed at event {} ({} snapshot(s) at {}, surviving log at {})",
                    state.events_processed(),
                    snapshots,
                    path.display(),
                    survivors.display()
                );
                return;
            }
        }
        let entry = match engine.step(&mut state) {
            Ok(Some(entry)) => entry,
            Ok(None) => break,
            Err(e) => fail(format!("engine failed: {e}")),
        };
        if snapshot_every > 0 {
            if let Event::CycleTick { cycle } = entry.event {
                if (cycle + 1) % snapshot_every == 0 {
                    let path = snapshot_path
                        .unwrap_or_else(|| fail("--snapshot-every requires --snapshot-path"));
                    if let Err(e) = snapshot::write(path, &engine.checkpoint(&state)) {
                        fail(format!("writing snapshot: {e}"));
                    }
                    snapshots += 1;
                }
            }
        }
    }
    let run = engine.finish(state);
    print_cell(scenario, algo, &run.report);
}

/// Restores from a snapshot, replays the surviving log suffix, runs to
/// completion, and prints the final cell lines.
fn resume_flow<S: SlotSelector + Copy>(
    engine: &Engine<S>,
    scenario: &str,
    algo: &str,
    snapshot_path: &Path,
) {
    let bytes = match std::fs::read(snapshot_path) {
        Ok(bytes) => bytes,
        Err(e) => fail(format!("reading {}: {e}", snapshot_path.display())),
    };
    let checkpoint = match decode_snapshot(&bytes) {
        Ok(checkpoint) => checkpoint,
        Err(e) => fail(format!("decoding {}: {e}", snapshot_path.display())),
    };
    let survivors = log_path(snapshot_path);
    let suffix: Vec<_> = match std::fs::read_to_string(&survivors) {
        Ok(json) => match serde_json::from_str::<Log<LogEntry>>(&json) {
            Ok(log) => log
                .entries
                .get(checkpoint.log.len()..)
                .unwrap_or(&[])
                .to_vec(),
            Err(e) => fail(format!("parsing {}: {e}", survivors.display())),
        },
        // No surviving log: restore without replay verification.
        Err(_) => Vec::new(),
    };
    eprintln!(
        "resuming from event {} and replaying {} surviving event(s)…",
        checkpoint.log.len(),
        suffix.len()
    );
    match resume_from(engine, &bytes, &suffix) {
        Ok(run) => print_cell(scenario, algo, &run.report),
        Err(e) => fail(format!("recovery failed: {e}")),
    }
}

/// Every flag the module docs describe; anything else is refused.
const FLAGS: &[&str] = &[
    "--seed",
    "--cycles",
    "--jobs",
    "--churn",
    "--mean-gap",
    "--no-coalesce",
    "--saturate",
    "--trace",
    "--trace-scale",
    "--single",
    "--scenario",
    "--algo",
    "--snapshot-every",
    "--snapshot-path",
    "--kill-at-event",
    "--resume",
    "--metrics-dump",
];

fn main() {
    reject_unknown_flags(FLAGS);
    let config = OnlineConfig {
        seed: arg_value("--seed").unwrap_or(42),
        cycles: arg_value("--cycles").unwrap_or(12),
        jobs: arg_value("--jobs").unwrap_or(60),
        churn: arg_value("--churn").unwrap_or(0.05),
        mean_interarrival: arg_value("--mean-gap").unwrap_or(10.0),
        coalesce: !std::env::args().any(|a| a == "--no-coalesce"),
    };
    let single = std::env::args().any(|a| a == "--single");
    let saturate = std::env::args().any(|a| a == "--saturate");

    if let Some(trace_file) = arg_value::<String>("--trace") {
        let scale: f64 = arg_value("--trace-scale").unwrap_or(1.0);
        let text = match std::fs::read_to_string(&trace_file) {
            Ok(text) => text,
            Err(e) => fail(format!("reading {trace_file}: {e}")),
        };
        let jobs = match parse_swf(&text) {
            Ok(jobs) => jobs,
            Err(e) => fail(format!("{trace_file}: {e}")),
        };
        if jobs.is_empty() {
            fail(format!("{trace_file}: no usable jobs"));
        }
        let engine_cfg =
            trace_config(&jobs, scale).unwrap_or_else(|e| fail(format!("--trace-scale: {e}")));
        eprintln!(
            "replaying {} trace jobs over {} cycles (seed {})…",
            jobs.len(),
            engine_cfg.cycles,
            config.seed
        );
        let dump = |algo: &str| {
            arg_value::<String>("--metrics-dump").map(|p| PathBuf::from(format!("{p}.{algo}")))
        };
        let (alp_dump, amp_dump) = (dump("ALP"), dump("AMP"));
        let alp = Engine::new(engine_cfg.clone(), Alp::new())
            .expect("valid config")
            .with_obs(metrics_recorder(alp_dump.as_deref()));
        let amp = Engine::new(engine_cfg, Amp::new())
            .expect("valid config")
            .with_obs(metrics_recorder(amp_dump.as_deref()));
        let alp_run = run_trace(&alp, config.seed, &jobs, scale).unwrap_or_else(|e| fail(e));
        let amp_run = run_trace(&amp, config.seed, &jobs, scale).unwrap_or_else(|e| fail(e));
        dump_metrics(alp_dump.as_deref(), alp.obs());
        dump_metrics(amp_dump.as_deref(), amp.obs());
        println!("E16 — SWF trace replay ({trace_file})\n");
        println!(
            "{}",
            trace_table(&[("ALP", &alp_run), ("AMP", &amp_run)]).render()
        );
        for (algo, run) in [("ALP", &alp_run), ("AMP", &amp_run)] {
            println!(
                "event_log_hash trace algo={algo} hash={}",
                run.report.log_hash
            );
            println!(
                "report_hash trace algo={algo} hash={}",
                report_hash(&run.report)
            );
        }
        return;
    }

    if saturate {
        eprintln!(
            "running saturation sweep (seed {}, {} cycles, gaps {:?})…",
            config.seed, config.cycles, SATURATION_GAPS
        );
        let points = run_saturation(&config, &SATURATION_GAPS);
        println!("E15 — saturation sweep (calm, job count scaled to the horizon)\n");
        println!("{}", saturation_table(&points).render());
        for p in &points {
            println!(
                "event_log_hash mean_gap={} algo={} hash={}",
                p.mean_gap, p.algo, p.report.log_hash
            );
        }
        return;
    }

    let scenario: String = arg_value("--scenario").unwrap_or_else(|| "churn".to_string());
    let algo: String = arg_value("--algo").unwrap_or_else(|| "AMP".to_string());
    let snapshot_every: u32 = arg_value("--snapshot-every").unwrap_or(0);
    let snapshot_path: Option<PathBuf> = arg_value::<String>("--snapshot-path").map(PathBuf::from);
    let kill_at: Option<u64> = arg_value("--kill-at-event");
    let resume: Option<PathBuf> = arg_value::<String>("--resume").map(PathBuf::from);

    if !matches!(scenario.as_str(), "calm" | "churn") {
        fail("--scenario must be calm or churn");
    }
    if !matches!(algo.as_str(), "ALP" | "AMP") {
        fail("--algo must be ALP or AMP");
    }

    if single || resume.is_some() || kill_at.is_some() || snapshot_every > 0 {
        let engine_cfg = engine_config(&config, scenario == "churn");
        let metrics_dump: Option<PathBuf> =
            arg_value::<String>("--metrics-dump").map(PathBuf::from);
        let obs = metrics_recorder(metrics_dump.as_deref());
        match (algo.as_str(), &resume) {
            ("ALP", Some(path)) => {
                let engine = Engine::new(engine_cfg, Alp::new())
                    .expect("valid config")
                    .with_obs(obs.clone());
                resume_flow(&engine, &scenario, &algo, path);
            }
            ("ALP", None) => {
                let engine = Engine::new(engine_cfg, Alp::new())
                    .expect("valid config")
                    .with_obs(obs.clone());
                single_flow(
                    &engine,
                    &scenario,
                    &algo,
                    config.seed,
                    snapshot_every,
                    snapshot_path.as_deref(),
                    kill_at,
                );
            }
            (_, Some(path)) => {
                let engine = Engine::new(engine_cfg, Amp::new())
                    .expect("valid config")
                    .with_obs(obs.clone());
                resume_flow(&engine, &scenario, &algo, path);
            }
            (_, None) => {
                let engine = Engine::new(engine_cfg, Amp::new())
                    .expect("valid config")
                    .with_obs(obs.clone());
                single_flow(
                    &engine,
                    &scenario,
                    &algo,
                    config.seed,
                    snapshot_every,
                    snapshot_path.as_deref(),
                    kill_at,
                );
            }
        }
        dump_metrics(metrics_dump.as_deref(), &obs);
        return;
    }

    eprintln!(
        "running online grid (seed {}, {} cycles, {} jobs, churn {}, mean gap {})…",
        config.seed, config.cycles, config.jobs, config.churn, config.mean_interarrival
    );
    let online = run_online(&config);
    println!("E15 — online metascheduling over a virtual clock (discrete-event engine)\n");
    println!("{}", online_table(&online).render());
    for p in &online {
        println!(
            "event_log_hash scenario={} algo={} hash={}",
            p.scenario, p.algo, p.report.log_hash
        );
        println!(
            "report_hash scenario={} algo={} hash={}",
            p.scenario,
            p.algo,
            report_hash(&p.report)
        );
    }
}
