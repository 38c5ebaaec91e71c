//! `ecosched-serve`: the scheduling daemon.
//!
//! ```text
//! ecosched-serve --data-dir DIR --listen tcp:127.0.0.1:0
//!     [--seed N] [--cycles N] [--cycle-length T] [--algo amp|alp]
//!     [--shards S] [--route round-robin|least-backlog|cheapest-probe]
//!     [--churn P] [--ticks-per-sec F] [--snapshot-every N]
//!     [--keep-snapshots K] [--max-backlog N]
//! ecosched-serve --data-dir DIR --verify
//! ```
//!
//! Scheduling flags configure a *fresh* data directory; an existing
//! directory's stored manifest pins the engine identity and the flags
//! are ignored. `--verify` replays the write-ahead log offline and
//! checks it against every kept snapshot's log position and entries,
//! then exits.

use std::path::PathBuf;
use std::process::ExitCode;

use ecosched_engine::ArrivalConfig;
use ecosched_federation::RoutePolicy;
use ecosched_service::{
    serve, verify_data_dir, Endpoint, SelectorChoice, ServeOptions, ServiceManifest,
};
use ecosched_sim::RevocationConfig;

struct Args {
    data_dir: PathBuf,
    listen: Option<Endpoint>,
    metrics: Option<Endpoint>,
    verify: bool,
    manifest: ServiceManifest,
    ticks_per_sec: f64,
}

fn usage(detail: &str) -> String {
    format!(
        "{detail}\nusage: ecosched-serve --data-dir DIR (--listen tcp:ADDR|unix:PATH | --verify)\n\
         \x20  [--metrics tcp:ADDR|unix:PATH] [--seed N] [--cycles N] [--cycle-length T]\n\
         \x20  [--algo amp|alp] [--churn P]\n\
         \x20  [--shards S] [--route round-robin|least-backlog|cheapest-probe]\n\
         \x20  [--ticks-per-sec F] [--snapshot-every N] [--keep-snapshots K]\n\
         \x20  [--max-backlog N]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut data_dir: Option<PathBuf> = None;
    let mut listen: Option<Endpoint> = None;
    let mut metrics: Option<Endpoint> = None;
    let mut verify = false;
    let mut manifest = ServiceManifest::default();
    let mut ticks_per_sec = 1000.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--listen" => {
                listen = Some(Endpoint::parse(&value("--listen")?).map_err(|e| usage(&e))?)
            }
            "--metrics" => {
                metrics = Some(Endpoint::parse(&value("--metrics")?).map_err(|e| usage(&e))?)
            }
            "--verify" => verify = true,
            "--seed" => {
                manifest.seed = value("--seed")?.parse().map_err(|_| usage("bad --seed"))?;
            }
            "--cycles" => {
                manifest.config.cycles = value("--cycles")?
                    .parse()
                    .map_err(|_| usage("bad --cycles"))?;
            }
            "--cycle-length" => {
                manifest.config.cycle_length = value("--cycle-length")?
                    .parse()
                    .map_err(|_| usage("bad --cycle-length"))?;
            }
            "--algo" => {
                manifest.selector = match value("--algo")?.as_str() {
                    "amp" => SelectorChoice::Amp,
                    "alp" => SelectorChoice::Alp,
                    other => return Err(usage(&format!("unknown --algo {other}"))),
                };
            }
            "--shards" => {
                manifest.shards = value("--shards")?
                    .parse()
                    .map_err(|_| usage("bad --shards"))?;
            }
            "--route" => {
                let name = value("--route")?;
                manifest.route = RoutePolicy::parse(&name)
                    .ok_or_else(|| usage(&format!("unknown --route {name}")))?;
            }
            "--churn" => {
                let p: f64 = value("--churn")?
                    .parse()
                    .map_err(|_| usage("bad --churn"))?;
                manifest.config.revocation = if p > 0.0 {
                    RevocationConfig::per_slot(p)
                } else {
                    RevocationConfig::none()
                };
            }
            "--ticks-per-sec" => {
                ticks_per_sec = value("--ticks-per-sec")?
                    .parse()
                    .ok()
                    .filter(|tps: &f64| tps.is_finite() && *tps > 0.0)
                    .ok_or_else(|| usage("--ticks-per-sec must be a positive, finite number"))?;
            }
            "--snapshot-every" => {
                manifest.snapshot_every_cycles = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| usage("bad --snapshot-every"))?;
            }
            "--keep-snapshots" => {
                manifest.keep_snapshots = value("--keep-snapshots")?
                    .parse()
                    .map_err(|_| usage("bad --keep-snapshots"))?;
            }
            "--max-backlog" => {
                manifest.admission.max_backlog = value("--max-backlog")?
                    .parse()
                    .map_err(|_| usage("bad --max-backlog"))?;
            }
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }

    let data_dir = data_dir.ok_or_else(|| usage("--data-dir is required"))?;
    if !verify && listen.is_none() {
        return Err(usage("--listen is required (or pass --verify)"));
    }
    // Service mode owns the job stream.
    manifest.config.arrivals = ArrivalConfig::External;
    Ok(Args {
        data_dir,
        listen,
        metrics,
        verify,
        manifest,
        ticks_per_sec,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    if args.verify {
        return match verify_data_dir(&args.data_dir) {
            Ok(report) => {
                println!(
                    "VERIFIED wal_entries={} dropped_lines={} snapshot_events={} \
                     snapshots_checked={} acked_in_snapshot={} log_hash={}",
                    report.wal_entries,
                    report.wal_dropped_lines,
                    report.snapshot_events,
                    report.snapshots_checked,
                    report.acked_in_snapshot,
                    report.log_hash
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("verification failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let options = ServeOptions {
        data_dir: args.data_dir,
        listen: args.listen.unwrap_or(Endpoint::Tcp("127.0.0.1:0".into())),
        ticks_per_sec: args.ticks_per_sec,
        manifest: Some(args.manifest),
        metrics: args.metrics,
    };
    match serve(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ecosched-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
