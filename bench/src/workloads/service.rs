//! `service_session`: the daemon's core — admission, routing, the
//! write-ahead log with an fsync before every acknowledgement, cycles and
//! cadence snapshots — driven in process, in virtual time.
//!
//! A script stands in for the clients: on every cycle boundary a burst of
//! twelve submissions arrives, as from clients that wake when the slot
//! list is published. The session is advanced to the boundary — which runs
//! the cycle and, every fourth cycle, a snapshot — and then handles the
//! burst as the daemon's loop handles a batch: every wire line decoded and
//! submitted, one commit (one fsync) for the batch, every answer encoded.
//! Nothing waits for the wall clock, so the session does the same work in
//! every run.
//!
//! This is the one workload timed on the thread's processor time (see
//! `clock.rs`): the sandbox's disk takes 0.3 ms for an fsync one minute and
//! 0.5 ms the next, 30 ms or 90 ms for a snapshot. What the gated metrics
//! hold is therefore the daemon's own work — admission, routing, the
//! cycle, encoding the snapshot, the system calls — and the waits are
//! reported from the wall-clock spans of the traced run
//! (`service.commit_fsync_us`, `service.snapshot_advance_ms`,
//! `persist.save_ms`, `harness.clock_share_of_wall`), ungated.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ecosched::engine::Engine;
use ecosched::persist::SnapshotStore;
use ecosched::select::Amp;
use ecosched::service::protocol::{decode_line, encode_line};
use ecosched::service::{
    serve, Client, Endpoint, JobSpec, Request, Response, ServeOptions, ServiceManifest, Session,
};
use ecosched::sim::{JobGenConfig, JobGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::engine::{shadow_probe, PROBE_EVERY};
use crate::harness::{Checks, Recorder, Rep, Traced, Workload};
use crate::stats::{ns_to_ms, percentile};

const CYCLES: u32 = 100;
const WARM_UP_CYCLES: u32 = 40;
const SUBMITS_PER_CYCLE: usize = 12;
const PRICE_CAP_LIFT: f64 = 1.6;
/// Leases and slots outlive the last cycle tick by less than this.
const DRAIN_TICKS: i64 = 1000;

/// The socket probe: closed-loop bursts over this many connections, each
/// burst below the daemon's backlog bound of 256.
const SOCKET_CONNECTIONS: usize = 2;
const SOCKET_BURSTS: usize = 10;
const SOCKET_BURST_JOBS: usize = 200;

pub struct ServiceSession {
    scratch: PathBuf,
    manifest: ServiceManifest,
    /// One request line per submission of a full repetition.
    lines: Vec<String>,
    sessions: u32,
    /// Data directory and final status of the last repetition.
    last: Option<(PathBuf, u64, String)>,
}

fn manifest(cycles: u32) -> ServiceManifest {
    let mut manifest = ServiceManifest::default();
    manifest.config.cycles = cycles;
    manifest
}

/// `count` submissions drawn from the paper's job generator. Admission
/// screens a job by the price cap slot by slot, as ALP does, and on the
/// default market turns away one in ten of the paper's jobs; with the cap
/// raised by [`PRICE_CAP_LIFT`] it accepts them all.
pub(super) fn job_specs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    JobGenerator::new(JobGenConfig::default())
        .generate_exact(&mut rng, count)
        .iter()
        .map(|job| {
            let request = job.request();
            JobSpec {
                nodes: request.nodes() as u64,
                wall_ticks: request.wall_time().ticks(),
                min_perf_milli: request.min_perf().milli(),
                price_cap_micro: request.price_cap().scale_f64(PRICE_CAP_LIFT).micro(),
                deadline_tick: None,
            }
        })
        .collect()
}

impl ServiceSession {
    pub fn new(seed: u64, scratch: PathBuf) -> Self {
        // The last cycle only drains: its tick is the scheduling horizon.
        let submissions = (CYCLES as usize - 1) * SUBMITS_PER_CYCLE;
        let lines = job_specs(seed, submissions)
            .into_iter()
            .map(|spec| encode_line(&Request::Submit { spec }))
            .collect();
        ServiceSession {
            scratch,
            manifest: manifest(CYCLES),
            lines,
            sessions: 0,
            last: None,
        }
    }

    /// A new data directory; the previous session's is deleted, so that
    /// its snapshots do not pile up on the disk the next one syncs to.
    fn fresh_data_dir(&mut self) -> PathBuf {
        if let Some((previous, ..)) = self.last.take() {
            let _ = std::fs::remove_dir_all(previous);
        }
        self.sessions += 1;
        self.scratch.join(format!("session-{}", self.sessions))
    }

    /// Runs the script for `cycles` cycles on a fresh data directory.
    fn session(&mut self, rec: &mut Recorder, cycles: u32) -> Rep {
        let data_dir = self.fresh_data_dir();
        let manifest = manifest(cycles);
        let cycle_length = manifest.config.cycle_length;
        let mut session =
            Session::open(&data_dir, manifest.clone(), Amp::new()).expect("a fresh session boots");
        let tracing = rec.tracing();
        let probe = tracing.then(|| {
            let engine = Engine::new(manifest.config.clone(), Amp::new()).expect("valid config");
            let store = SnapshotStore::open(self.scratch.join("probe-snapshots"), 3)
                .expect("the scratch directory is writable");
            (engine, store)
        });

        let mut failed = 0;
        let mut acked = 0;
        let bursts = cycles as usize - 1;
        for (cycle, burst) in self
            .lines
            .chunks(SUBMITS_PER_CYCLE)
            .take(bursts)
            .enumerate()
        {
            let now = cycle as i64 * cycle_length;
            if let Some((engine, store)) = &probe {
                if (cycle as u32).is_multiple_of(PROBE_EVERY) {
                    // A session is stepped only through `advance_to`, a
                    // tick at a time, so the probe cannot stand between this
                    // tick's `SlotPublished` and `CycleTick`. It looks one
                    // tick earlier: the batch is the one the cycle will
                    // see, the market still lacks the cycle's new slots.
                    advance(&mut session, rec, now - 1);
                    rec.exclude(|rec| {
                        let shard = session.state().shard(0);
                        shadow_probe(rec, engine, shard, cycle as u32, store);
                    });
                }
            }
            // The burst is due at the boundary: its latencies run from
            // there, through the cycle the session must process to reach
            // the tick, to each acknowledgement.
            let due = rec.now();
            advance(&mut session, rec, now);
            rec.tracer.set_op(cycle as u64);
            let acks = handle_burst(rec, &mut session, burst, now, due);
            acked += acks.len() as u64;
            failed += (burst.len() - acks.len()) as u64;
            for ns in acks {
                rec.op_took(ns);
            }
        }
        advance(
            &mut session,
            rec,
            i64::from(cycles) * cycle_length + DRAIN_TICKS,
        );

        if tracing {
            rec.add("service.cycles", f64::from(cycles));
        }
        let status = session.status();
        if status.arrivals != acked || status.rejected_total != 0 {
            failed += 1;
        }
        self.last = Some((data_dir, acked, status.log_hash.clone()));
        Rep {
            ops: (bursts * SUBMITS_PER_CYCLE) as u64,
            failed,
            hash: status.log_hash,
        }
    }
}

fn advance(session: &mut Session<Amp>, rec: &mut Recorder, target: i64) {
    let start = Instant::now();
    let snapshots = session.advance_to(target).expect("the session advances");
    if rec.tracing() {
        let ns = start.elapsed().as_nanos() as u64;
        rec.add("service.advance_ms", ns as f64);
        if snapshots > 0 {
            rec.add("service.snapshot_advance_ms", ns as f64);
            rec.add("service.snapshots", f64::from(snapshots));
        } else {
            rec.add("service.plain_advance_ns", ns as f64);
        }
    }
}

/// One burst as the daemon's loop handles a batch: decode every request
/// line, admit and inject it, make the batch durable with one commit,
/// encode every response line. Returns the time from `due` to each
/// acknowledgement; a submission that was turned away has none.
fn handle_burst(
    rec: &mut Recorder,
    session: &mut Session<Amp>,
    burst: &[String],
    now: i64,
    due: u64,
) -> Vec<u64> {
    // The spans of an untraced repetition would be the tracing overhead
    // the untraced repetitions are there not to have.
    fn step<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
        if rec.tracing() {
            rec.span(name, f)
        } else {
            f()
        }
    }
    let mut staged = Vec::with_capacity(burst.len());
    for line in burst {
        let Ok(Request::Submit { spec }) =
            step(rec, "service.decode_us", || decode_line::<Request>(line))
        else {
            continue;
        };
        if let Ok(ack) = step(rec, "service.submit_us", || session.submit(&spec, now)) {
            staged.push(ack);
        }
    }
    let Ok(durable) = step(rec, "service.commit_fsync_us", || session.commit()) else {
        return Vec::new();
    };
    let mut acks = Vec::with_capacity(staged.len());
    for ack in staged.iter().filter(|ack| durable.contains(ack)) {
        let response = Response::Accepted {
            shard: ack.shard,
            job: ack.job,
            time: ack.time,
        };
        let line = step(rec, "service.encode_us", || encode_line(&response));
        if !std::hint::black_box(line).is_empty() {
            acks.push(rec.now() - due);
        }
    }
    acks
}

impl Workload for ServiceSession {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        self.session(rec, CYCLES)
    }

    /// A full repetition takes as long as the whole timed phase of the
    /// other workloads, so a shorter throwaway session warms up.
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.session(rec, WARM_UP_CYCLES);
    }

    fn verify(&mut self, checks: &mut Checks) {
        let (data_dir, acked, hash) = self.last.clone().expect("a repetition ran");
        match reopen(&data_dir, &self.manifest) {
            Ok(status) => {
                checks.check(status.arrivals == acked, || {
                    format!("{acked} jobs acked, {} recovered", status.arrivals)
                });
                checks.check(status.log_hash == hash, || {
                    format!("log hash {hash} recovered as {}", status.log_hash)
                });
            }
            Err(e) => checks.check(false, || format!("the data directory does not reopen: {e}")),
        }
    }

    fn probe(&mut self, rec: &mut Recorder) {
        let (data_dir, ..) = self.last.clone().expect("a repetition ran");
        rec.span("persist.resume_ms", || {
            Session::open(&data_dir, self.manifest.clone(), Amp::new())
        })
        .expect("the finished data directory reopens");
        if let Err(e) = socket_probe(rec, &self.scratch.join("daemon")) {
            eprintln!("service_session: socket probe failed: {e}");
        }
    }

    fn derive(&self, rec: &mut Recorder, traced: &Traced) {
        crate::pipeline::derive_ratios(rec);
        let wall = traced.wall_ns;
        if traced.latencies_ns.is_empty() {
            return;
        }
        rec.set(
            "service.ack_p99_ms",
            ns_to_ms(percentile(traced.latencies_ns, 99.0)),
        );
        let ack_steps = [
            "service.decode_us",
            "service.submit_us",
            "service.commit_fsync_us",
            "service.encode_us",
        ];
        // Over the socket an acknowledgement takes the four steps of a
        // burst of one, plus the wire and the daemon's loop.
        let socket_p50 = rec.mean("service.socket_ack_p50_ms");
        if socket_p50 > 0.0 {
            let in_process_ns: f64 = ack_steps.iter().map(|step| rec.mean(step)).sum();
            rec.set(
                "service.socket_overhead_us",
                socket_p50 * 1e3 - in_process_ns / 1e3,
            );
        }
        // An advance that snapshots also runs that tick's cycle; what it
        // takes beyond a plain advance is the checkpoint, its encoding
        // and the durable write.
        let snapshot_advances = rec.sum("service.snapshot_advance_ms");
        let plain = rec.mean("service.plain_advance_ns");
        let snapshots = rec.sum("service.snapshots");
        let persist = (snapshot_advances - snapshots * plain).max(0.0);
        rec.set("persist.wall_share", persist / wall);
        let acks: f64 = ack_steps.iter().map(|step| rec.sum(step)).sum();
        rec.set("service.wall_share", acks / wall);
        // The probes see every 5th cycle; take their mean for all cycles.
        let cycles = rec.sum("service.cycles");
        let select = rec.mean("select.scan_ms") * cycles;
        let optimize = rec.mean("optimize.solve_ms") * cycles;
        rec.set("select.wall_share", select / wall);
        rec.set("optimize.wall_share", optimize / wall);
        let advances = rec.sum("service.advance_ms");
        rec.set(
            "engine.bookkeeping_share",
            (advances - persist - select - optimize).max(0.0) / wall,
        );
    }
}

/// Reopens a data directory as a restarted daemon would, runs the
/// recovered session to the end of the script, and reports its status.
fn reopen(
    data_dir: &Path,
    manifest: &ServiceManifest,
) -> Result<ecosched::service::DaemonStatus, ecosched::service::ServiceError> {
    let mut session = Session::open(data_dir, manifest.clone(), Amp::new())?;
    let end = i64::from(manifest.config.cycles) * manifest.config.cycle_length + DRAIN_TICKS;
    session.advance_to(end)?;
    Ok(session.status())
}

// -- the socket probe ---------------------------------------------------------

/// The flag that turns this binary into the daemon the probe talks to.
pub const DAEMON_FLAG: &str = "--serve-daemon";

/// The daemon process of the socket probe: `ecosched-serve`'s serve loop
/// with its default pacing, on a horizon far enough away that the probe
/// never reaches it.
pub fn daemon_main(data_dir: &str, listen: &str) -> Result<(), String> {
    let options = ServeOptions {
        data_dir: PathBuf::from(data_dir),
        listen: Endpoint::parse(listen)?,
        ticks_per_sec: 1000.0,
        manifest: Some(manifest(5000)),
        metrics: None,
    };
    serve(&options).map_err(|e| e.to_string())
}

struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    /// Starts the daemon and waits for its `READY` line.
    fn spawn(data_dir: &Path, socket: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .arg(data_dir)
            .arg(format!("unix:{}", socket.display()))
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut ready = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut ready);
        match ready.strip_prefix("READY ").map(str::trim) {
            Some(endpoint) if read.is_ok() => Ok(Daemon {
                endpoint: Endpoint::parse(endpoint)?,
                child,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the daemon did not come up: {ready:?}"))
            }
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(
            &self.endpoint,
            Duration::from_secs(10),
            5,
            Duration::from_millis(10),
        )
        .map_err(|e| e.to_string())
    }

    /// SIGKILL, then wait until the process is gone.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Submits bursts to a real daemon process over its socket, kills it, and
/// times the restart.
fn socket_probe(rec: &mut Recorder, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (data_dir, socket) = (dir.join("data"), dir.join("eco.sock"));
    let daemon = Daemon::spawn(&data_dir, &socket)?;
    let outcome = socket_bursts(&daemon);
    daemon.kill();
    let mut acks = outcome?;

    acks.sort_unstable();
    rec.set(
        "service.socket_ack_p50_ms",
        ns_to_ms(percentile(&acks, 50.0)),
    );
    rec.set(
        "service.socket_ack_p99_ms",
        ns_to_ms(percentile(&acks, 99.0)),
    );

    let restart = Instant::now();
    let daemon = Daemon::spawn(&data_dir, &socket)?;
    rec.add("service.recover_ms", restart.elapsed().as_nanos() as f64);
    let recovered = daemon.connect().and_then(|mut c| match c.status() {
        Ok(Response::Status { status }) => Ok(status.arrivals),
        other => Err(format!("no status after the restart: {other:?}")),
    });
    daemon.kill();
    match recovered? {
        n if n == acks.len() as u64 => Ok(()),
        n => Err(format!(
            "{} jobs acked before the kill, {n} recovered",
            acks.len()
        )),
    }
}

/// Closed-loop bursts; returns every acknowledgement's latency.
fn socket_bursts(daemon: &Daemon) -> Result<Vec<u64>, String> {
    let mut control = daemon.connect()?;
    let mut clients = Vec::new();
    for _ in 0..SOCKET_CONNECTIONS {
        clients.push(daemon.connect()?);
    }
    // The daemon publishes its first slots when its loop first advances,
    // after the first batch of requests; admission would turn away jobs
    // that arrive in that batch for want of a market.
    control.status().map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(100));
    let all_specs = job_specs(0, SOCKET_BURSTS * SOCKET_BURST_JOBS);
    let mut acks = Vec::new();
    for specs in all_specs.chunks(SOCKET_BURST_JOBS) {
        let per_client = SOCKET_BURST_JOBS / SOCKET_CONNECTIONS;
        let results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(specs.chunks(per_client))
                .map(|(client, specs)| {
                    scope.spawn(move || {
                        let mut latencies = Vec::new();
                        for spec in specs {
                            let start = Instant::now();
                            match client.submit(*spec) {
                                Ok(Response::Accepted { .. }) => {
                                    latencies.push(start.elapsed().as_nanos() as u64);
                                }
                                other => return Err(format!("not accepted: {other:?}")),
                            }
                        }
                        Ok(latencies)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|_| Err("a client panicked".into())))
                .collect()
        });
        for result in results {
            acks.extend(result?);
        }
        // The next burst must fit under the backlog bound again.
        loop {
            match control.status() {
                Ok(Response::Status { status }) if status.backlog < 32 => break,
                Ok(Response::Status { .. }) => std::thread::sleep(Duration::from_millis(20)),
                other => return Err(format!("no status: {other:?}")),
            }
        }
    }
    Ok(acks)
}
