//! E18 — sharded multi-VO federation: the superscheduler sweep over
//! shard count × arrival intensity.
//!
//! Usage: `exp_federation [--seed S] [--cycles C]
//! [--shards S --mean-gap G [--single | --snapshot-every N
//! --snapshot-path P [--kill-at-event K] | --resume P]]`.
//!
//! The default run sweeps shard count {1, 2, 4, 8} × mean arrival gap
//! {10, 5, 2.5} ticks under cheapest-probe routing with cross-shard
//! co-allocation on, printing the E18 table (throughput, end-of-run
//! backlog, cross-shard placement frequency) plus, per cell, a
//! `merged_log_hash` line and a `report_hash` line (the FNV-1a 64 of the
//! federation report's JSON). All output is deterministic, and the whole
//! stdout is pinned (`scripts/check_pins.sh`).
//!
//! Crash-recovery mode runs one labelled cell (`--shards`, `--mean-gap`)
//! instead of the sweep:
//!
//! * `--single` — run it uninterrupted and print its final
//!   `merged_log_hash`/`federation_report` lines;
//! * `--snapshot-every N --snapshot-path P` — also write a federated
//!   snapshot (every shard + router state in one container) after every
//!   N-th cycle tick of shard 0;
//! * `--kill-at-event K` — simulate a crash: stop after K merged
//!   events, leaving the latest snapshot at `P`;
//! * `--resume P` — restore every shard and the router from `P`, run to
//!   completion, and print the same final lines — which, by the
//!   federation determinism contract, are byte-identical to the
//!   uninterrupted run's. CI kills a run mid-flight, resumes it, and
//!   diffs exactly these lines.
//!
//! `--metrics-dump PATH` (single-cell and resume modes) attaches a live
//! metrics recorder across the federation and its shard engines and
//! writes the final registry as JSON to `PATH` next to the printed
//! report. Observe-only: the hash and report lines are byte-identical
//! with or without it.

use std::path::{Path, PathBuf};

use ecosched_engine::{fnv1a_64, Event};
use ecosched_experiments::federation::{
    fed_config, federation_table, run_federation_sweep, FEDERATION_GAPS, FEDERATION_SHARDS,
};
use ecosched_experiments::online::OnlineConfig;
use ecosched_experiments::{arg_value, reject_unknown_flags};
use ecosched_federation::{federation_obs, Federation, FederationCheckpoint, FederationRun};
use ecosched_obs::{Recorder, RegistryBuilder};
use ecosched_persist::snapshot;
use ecosched_select::Amp;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("exp_federation: {message}");
    std::process::exit(2);
}

fn print_cell(shards: u32, mean_gap: f64, run: &FederationRun) {
    println!(
        "merged_log_hash shards={shards} gap={mean_gap} hash={}",
        run.report.merged_log_hash
    );
    println!(
        "federation_report shards={shards} gap={mean_gap} {}",
        run.report.to_json()
    );
}

/// Runs one cell, optionally snapshotting every N-th shard-0 cycle tick
/// and optionally dying (like a crash would) after `kill_at` merged
/// events.
fn single_flow(
    fed: &Federation<Amp>,
    shards: u32,
    mean_gap: f64,
    seed: u64,
    snapshot_every: u32,
    snapshot_path: Option<&Path>,
    kill_at: Option<u64>,
) {
    let mut state = fed.start(seed);
    let mut snapshots = 0u32;
    loop {
        if let Some(k) = kill_at {
            if state.merged().len() as u64 >= k {
                let path = snapshot_path
                    .unwrap_or_else(|| fail("--kill-at-event requires --snapshot-path"));
                eprintln!(
                    "killed at merged event {} ({snapshots} snapshot(s) at {})",
                    state.merged().len(),
                    path.display()
                );
                return;
            }
        }
        let entry = match fed.step(&mut state) {
            Ok(Some(entry)) => entry,
            Ok(None) => break,
            Err(e) => fail(format!("federation failed: {e}")),
        };
        if snapshot_every > 0 && entry.shard == 0 {
            if let Event::CycleTick { cycle } = entry.event {
                if (cycle + 1) % snapshot_every == 0 {
                    let path = snapshot_path
                        .unwrap_or_else(|| fail("--snapshot-every requires --snapshot-path"));
                    if let Err(e) = snapshot::write(path, &fed.checkpoint(&state)) {
                        fail(format!("writing snapshot: {e}"));
                    }
                    snapshots += 1;
                }
            }
        }
    }
    print_cell(shards, mean_gap, &fed.finish(state));
}

/// Restores from a federated snapshot, runs to completion, and prints
/// the final cell lines.
fn resume_flow(fed: &Federation<Amp>, shards: u32, mean_gap: f64, snapshot_path: &Path) {
    let checkpoint: FederationCheckpoint = match snapshot::read(snapshot_path) {
        Ok(checkpoint) => checkpoint,
        Err(e) => fail(format!("reading {}: {e}", snapshot_path.display())),
    };
    let merged_at_capture = checkpoint.merged.len();
    let mut state = match fed.resume(&checkpoint) {
        Ok(state) => state,
        Err(e) => fail(format!("resume failed: {e}")),
    };
    eprintln!("resuming from merged event {merged_at_capture}…");
    loop {
        match fed.step(&mut state) {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => fail(format!("federation failed after resume: {e}")),
        }
    }
    print_cell(shards, mean_gap, &fed.finish(state));
}

/// Every flag the module docs describe; anything else is refused.
const FLAGS: &[&str] = &[
    "--seed",
    "--cycles",
    "--shards",
    "--mean-gap",
    "--single",
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
        ..OnlineConfig::default()
    };

    let single = std::env::args().any(|a| a == "--single");
    let snapshot_every: u32 = arg_value("--snapshot-every").unwrap_or(0);
    let snapshot_path: Option<PathBuf> = arg_value::<String>("--snapshot-path").map(PathBuf::from);
    let kill_at: Option<u64> = arg_value("--kill-at-event");
    let resume: Option<PathBuf> = arg_value::<String>("--resume").map(PathBuf::from);

    if single || resume.is_some() || kill_at.is_some() || snapshot_every > 0 {
        let shards: u32 = arg_value("--shards").unwrap_or(4);
        let mean_gap: f64 = arg_value("--mean-gap").unwrap_or(5.0);
        let metrics_dump: Option<PathBuf> =
            arg_value::<String>("--metrics-dump").map(PathBuf::from);
        let mut fed = Federation::new(fed_config(&config, shards, mean_gap), Amp::new())
            .unwrap_or_else(|e| fail(format!("federation config: {e}")));
        if metrics_dump.is_some() {
            let (fed_obs, shard_obs) = federation_obs(RegistryBuilder::new(), shards as usize);
            fed = fed.with_obs(fed_obs, shard_obs);
        }
        match &resume {
            Some(path) => resume_flow(&fed, shards, mean_gap, path),
            None => single_flow(
                &fed,
                shards,
                mean_gap,
                config.seed,
                snapshot_every,
                snapshot_path.as_deref(),
                kill_at,
            ),
        }
        let registry = fed.obs().recorder().and_then(Recorder::registry);
        if let (Some(path), Some(registry)) = (&metrics_dump, registry) {
            if let Err(e) = std::fs::write(path, registry.render_json()) {
                fail(format!("writing metrics dump {}: {e}", path.display()));
            }
            eprintln!("metrics registry dumped to {}", path.display());
        }
        return;
    }

    eprintln!(
        "running federation sweep (seed {}, {} cycles, shards {:?} × gaps {:?})…",
        config.seed, config.cycles, FEDERATION_SHARDS, FEDERATION_GAPS
    );
    let points = run_federation_sweep(&config, Amp::new(), &FEDERATION_SHARDS, &FEDERATION_GAPS);
    println!("E18 — sharded federation sweep (cheapest-probe routing, cross-shard on)\n");
    println!("{}", federation_table(&config, &points).render());
    for p in &points {
        println!(
            "merged_log_hash shards={} gap={} hash={}",
            p.shards, p.mean_gap, p.report.merged_log_hash
        );
        // The report's hash pins what was decided, which the merged log
        // (inputs and timings only) does not.
        println!(
            "report_hash shards={} gap={} hash={:016x}",
            p.shards,
            p.mean_gap,
            fnv1a_64(p.report.to_json().as_bytes())
        );
    }
}
