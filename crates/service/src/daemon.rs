//! The socket daemon: accept loops, the virtual-time pacing loop, and
//! group-commit request handling around a [`Session`].
//!
//! # Threading model
//!
//! Connection handler threads never touch engine state. Each parsed
//! request is sent over an mpsc channel to the single serve loop, which
//! owns the [`Session`]; the handler blocks on a per-request reply
//! channel and writes the response line back to its client. All
//! scheduling state therefore remains single-threaded and the engine's
//! determinism contract is untouched by connection concurrency — the
//! only nondeterminism is the *order* submissions arrive in, which is
//! exactly what the write-ahead log records.
//!
//! # Pacing
//!
//! The serve loop maps wall-clock time to virtual time at
//! `ticks_per_sec`, starting from the resumed state's last event time.
//! Each iteration drains queued requests, injects accepted submissions
//! at the current virtual tick, commits them with one fsync, acks, and
//! then steps the engine up to the virtual target (taking cadence
//! snapshots after cycle ticks). SIGTERM (or a `Shutdown` request)
//! triggers commit + final snapshot + exit.

use std::io::{BufRead as _, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ecosched_select::{Alp, Amp, SlotSelector};

use crate::accept::{spawn_accept_loop, timed_out, Bounds};
use crate::client::{Endpoint, Stream};
use crate::error::ServiceError;
use crate::manifest::{load_manifest, save_manifest, SelectorChoice, ServiceManifest};
use crate::metrics_http::spawn_metrics_listener;
use crate::obs::{build_service_obs, Fact, ServiceObs};
use crate::protocol::{decode_line, encode_line, RejectReason, Request, Response};
use crate::session::Session;
use crate::signals;

/// Options for one daemon process.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The durable state directory (manifest, WAL, snapshots).
    pub data_dir: PathBuf,
    /// Where to listen.
    pub listen: Endpoint,
    /// Virtual ticks per wall-clock second: a positive, finite number.
    pub ticks_per_sec: f64,
    /// Manifest for a *fresh* data directory. An existing directory's
    /// stored manifest always wins (the engine identity is pinned);
    /// `None` means use [`ServiceManifest::default`] when fresh.
    pub manifest: Option<ServiceManifest>,
    /// Where to expose `/metrics`, `/healthz`, and `/trace` over plain
    /// HTTP/1.1; `None` disables observability entirely (the recorder
    /// stays off and every instrumentation call is a no-op).
    pub metrics: Option<Endpoint>,
}

/// One parsed request plus the channel its response goes back on.
struct Inbound {
    request: Request,
    reply: mpsc::Sender<Response>,
}

/// Runs the daemon until shutdown. Prints exactly one
/// `READY <endpoint>` line to stdout once the socket is listening and
/// the session has booted (crash recovery included) — supervisors and
/// tests key on it.
///
/// # Errors
///
/// [`ServiceError::Config`] for a `ticks_per_sec` that is not a positive,
/// finite number, before anything is read or written; boot, bind, or
/// fatal serve-loop failures (a failed group commit is fatal by design:
/// un-acked state must not keep serving).
pub fn serve(options: &ServeOptions) -> Result<(), ServiceError> {
    let tps = options.ticks_per_sec;
    if !(tps.is_finite() && tps > 0.0) {
        return Err(ServiceError::Config(format!(
            "ticks per second must be positive and finite, got {tps}"
        )));
    }
    let manifest = match load_manifest(&options.data_dir)? {
        Some(stored) => stored,
        None => {
            let manifest = options.manifest.clone().unwrap_or_default();
            manifest.validate()?;
            std::fs::create_dir_all(&options.data_dir)?;
            save_manifest(&options.data_dir, &manifest)?;
            manifest
        }
    };
    match manifest.selector {
        SelectorChoice::Amp => serve_with(options, manifest, Amp::new()),
        SelectorChoice::Alp => serve_with(options, manifest, Alp::new()),
    }
}

fn serve_with<S: SlotSelector + Copy>(
    options: &ServeOptions,
    manifest: ServiceManifest,
    selector: S,
) -> Result<(), ServiceError> {
    let mut session = Session::open(&options.data_dir, manifest, selector)?;
    signals::install_term_handler();

    // Observability comes up after boot replay (recovery is not live
    // traffic) and before READY, so a supervisor that saw READY can
    // already scrape.
    if let Some(metrics_endpoint) = &options.metrics {
        let bundle = build_service_obs(session.state().shard_count());
        let recorder = bundle.recorder.clone();
        let service_obs = bundle.service.clone();
        session.set_obs(bundle);
        let bound = spawn_metrics_listener(metrics_endpoint, recorder, service_obs)?;
        println!("METRICS {bound}");
    }

    let (tx, rx) = mpsc::channel::<Inbound>();
    let obs = session.obs().clone();
    let ready_endpoint = spawn_protocol_listener(&options.listen, Bounds::DEFAULT, tx, obs)?;
    // The READY line is the durability barrier for supervisors: the boot
    // replay is done and the socket is accepting.
    println!("READY {ready_endpoint}");
    let _ = std::io::stdout().flush();
    serve_requests(
        &mut session,
        &rx,
        options.ticks_per_sec,
        signals::term_requested,
    )
}

/// The serve loop: paces virtual time at `tps` ticks per second from
/// the session's last event, answers what arrives on `rx` with one group
/// commit per batch, and returns after a shutdown (a `Shutdown` request,
/// or `term_requested` turning true) or once every sender is gone.
fn serve_requests<S: SlotSelector + Copy>(
    session: &mut Session<S>,
    rx: &mpsc::Receiver<Inbound>,
    tps: f64,
    term_requested: fn() -> bool,
) -> Result<(), ServiceError> {
    let epoch = Instant::now();
    let origin = session.virtual_time();

    loop {
        // The cast saturates, and so does the sum, at the end of time.
        let now_vt = origin.saturating_add((epoch.elapsed().as_secs_f64() * tps) as i64);

        // Gather a batch: block until the first request or the next
        // pacing deadline, then drain whatever else is already queued
        // (group commit). A request arriving mid-wait wakes the loop
        // immediately, so the timeout only bounds *pacing* granularity:
        // short when the next event is imminent, long when the queue is
        // idle (an idle daemon must not spin).
        let wait = match session.next_event_in(now_vt, tps) {
            Some(due) => due.clamp(Duration::from_millis(2), Duration::from_millis(50)),
            None => Duration::from_millis(50),
        };
        let mut batch = Vec::new();
        let mut batch_start = Instant::now();
        match rx.recv_timeout(wait) {
            Ok(inbound) => {
                // The ack-latency clock starts when the batch leaves the
                // channel, not when the loop woke up idle.
                batch_start = Instant::now();
                batch.push(inbound);
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                    if batch.len() >= 1024 {
                        break;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }

        let mut pending_acks: Vec<(mpsc::Sender<Response>, u32, u32)> = Vec::new();
        let mut shutdown_replies: Vec<mpsc::Sender<Response>> = Vec::new();
        for inbound in batch {
            match inbound.request {
                Request::Submit { spec } => match session.submit(&spec, now_vt) {
                    Ok(ack) => pending_acks.push((inbound.reply, ack.shard, ack.job)),
                    Err(reason) => {
                        let _ = inbound.reply.send(Response::Rejected { reason });
                    }
                },
                Request::Status => {
                    let _ = inbound.reply.send(Response::Status {
                        status: session.status(),
                    });
                }
                Request::Shutdown => shutdown_replies.push(inbound.reply),
            }
        }

        // One fsync covers the whole batch; only then do acks go out.
        let acks = session.commit()?;
        for (reply, shard, job) in pending_acks {
            let ack = acks.iter().find(|a| a.shard == shard && a.job == job);
            let response = match ack {
                Some(a) => Response::Accepted {
                    shard: a.shard,
                    job: a.job,
                    time: a.time,
                },
                // Unreachable by construction; never ack un-fsynced work.
                None => Response::Error {
                    detail: "commit did not cover this submission".into(),
                },
            };
            let _ = reply.send(response);
            session.obs().feed(Fact::Ack(batch_start.elapsed()));
        }

        if !shutdown_replies.is_empty() || term_requested() {
            session.shutdown()?;
            for reply in shutdown_replies {
                let _ = reply.send(Response::ShuttingDown);
                // The handler drops its receiver only after the response
                // line is flushed to the socket, which turns send() into
                // an error — poll for that (bounded) so process exit
                // can't race the write. Probe sends are never read.
                let deadline = Instant::now() + Duration::from_secs(1);
                while reply.send(Response::ShuttingDown).is_ok() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            return Ok(());
        }

        session.advance_to(now_vt)?;
    }
}

/// Binds the protocol socket. Every connection runs [`handle_connection`]
/// against the serve loop at `tx` on a thread of its own; one over
/// `bounds.max_live` gets one error line and is closed.
fn spawn_protocol_listener(
    listen: &Endpoint,
    bounds: Bounds,
    tx: mpsc::Sender<Inbound>,
    obs: ServiceObs,
) -> Result<Endpoint, ServiceError> {
    let refused = obs.clone();
    let refuse = move |conn: &mut Stream| {
        refused.feed(Fact::ConnectionRefused);
        let response = Response::Error {
            detail: "too many open connections; closing this one".into(),
        };
        let _ = writeln!(conn, "{}", encode_line(&response));
        let _ = conn.flush();
    };
    spawn_accept_loop(listen, bounds, refuse, move |conn| {
        if let Ok(reader) = conn.try_clone() {
            handle_connection(BufReader::new(reader), conn, &tx, &obs);
        }
    })
}

/// The longest request line the daemon reads, newline excluded. A submit
/// is a few hundred bytes; the cap keeps one client from making its
/// connection thread buffer without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Reads request lines, relays them to the serve loop, writes response
/// lines. Ends on EOF, I/O failure (a read that waited out the idle
/// timeout is counted), a line that is not UTF-8, or daemon shutdown —
/// and after answering a line longer than
/// [`MAX_REQUEST_LINE`] with an error, since the rest of it cannot be
/// told from the next request.
fn handle_connection<R: Read, W: Write>(
    mut reader: BufReader<R>,
    mut writer: W,
    tx: &mpsc::Sender<Inbound>,
    obs: &ServiceObs,
) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a line that fits from one that does
        // not.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(1..) => {}
            Err(e) if timed_out(&e) => return obs.feed(Fact::IdleClose),
            _ => return,
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            obs.feed(Fact::OversizedLine);
            let response = Response::Error {
                detail: format!(
                    "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
                ),
            };
            let _ = writeln!(writer, "{}", encode_line(&response));
            let _ = writer.flush();
            return;
        }
        // `decode_line` trims the line ending with the rest of the
        // surrounding whitespace.
        let Ok(line) = std::str::from_utf8(&buf) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let response = match decode_line::<Request>(line) {
            Err(detail) => Response::Error { detail },
            Ok(request) => {
                if tx
                    .send(Inbound {
                        request,
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    // Serve loop gone (shutdown); refuse politely.
                    Response::Rejected {
                        reason: RejectReason::ShuttingDown,
                    }
                } else {
                    match reply_rx.recv() {
                        Ok(response) => response,
                        Err(_) => Response::Rejected {
                            reason: RejectReason::ShuttingDown,
                        },
                    }
                }
            }
        };
        let done = matches!(response, Response::ShuttingDown);
        if writeln!(writer, "{}", encode_line(&response)).is_err() {
            return;
        }
        let _ = writer.flush();
        // Only now release the reply channel: the serve loop's shutdown
        // path probes it to learn the line reached the wire before the
        // process exits (process exit must not race this write).
        drop(reply_rx);
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;
    use std::net::TcpStream;

    fn counter(bundle: &crate::obs::ServiceObsBundle, name: &str) -> u64 {
        let reg = bundle.recorder.registry().expect("recorder on");
        reg.counter_value(reg.find_counter(name, &[]).expect("registered"))
    }

    /// A protocol listener on a loopback port, held to `bounds`, and its
    /// first connection; the closure makes more, and what the listener
    /// relays arrives on the receiver, with no serve loop behind it
    /// unless the caller runs one.
    fn listener(
        bounds: Bounds,
        obs: &ServiceObs,
    ) -> (TcpStream, impl Fn() -> TcpStream, mpsc::Receiver<Inbound>) {
        let (tx, rx) = mpsc::channel();
        let any_port = Endpoint::Tcp("127.0.0.1:0".into());
        let Endpoint::Tcp(addr) = spawn_protocol_listener(&any_port, bounds, tx, obs.clone())
            .expect("binds a loopback port")
        else {
            unreachable!("a TCP listen binds a TCP endpoint");
        };
        let connect = move || {
            let stream = TcpStream::connect(addr.as_str()).expect("connects");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream
        };
        (connect(), connect, rx)
    }

    #[test]
    fn a_connection_over_the_cap_gets_one_error_line_and_is_closed() {
        let bundle = build_service_obs(1);
        let bounds = Bounds {
            max_live: 1,
            idle: Duration::from_secs(30),
        };
        // The first connection takes the one place and keeps it.
        let (_held, connect, _rx) = listener(bounds, &bundle.service);
        let mut over = BufReader::new(connect());
        let mut line = String::new();
        over.read_line(&mut line)
            .expect("answered, not left waiting");
        match decode_line::<Response>(&line) {
            Ok(Response::Error { detail }) => {
                assert!(detail.contains("too many open connections"), "{detail}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
        line.clear();
        assert_eq!(over.read_line(&mut line).unwrap(), 0, "closed after it");
        let refused = "ecosched_service_connections_refused_total";
        assert_eq!(counter(&bundle, refused), 1);
    }

    /// A submit the engine's arithmetic cannot take — a performance floor
    /// of 0 or below, a budget `C·t·N` past `i64` — is answered `Rejected
    /// { Malformed }` by the serve loop, which keeps serving: the next
    /// valid submit on the same connection is accepted.
    #[test]
    fn a_malformed_submit_is_rejected_and_the_loop_serves_on() {
        let tag = format!("ecosched-daemon-malformed-{}", std::process::id());
        let dir = std::env::temp_dir().join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = ServiceManifest::default();
        let mut session = Session::open(&dir, manifest, Amp::new()).expect("boots");
        let (stream, _, rx) = listener(Bounds::DEFAULT, session.obs());
        let client = std::thread::spawn(move || {
            let mut replies = BufReader::new(stream.try_clone().expect("clones")).lines();
            let mut stream = stream;
            let mut ask = |request: &Request| {
                writeln!(stream, "{}", encode_line(request)).expect("sends");
                let reply = replies.next().expect("answered").expect("reads");
                decode_line::<Response>(&reply).expect("parses")
            };
            let valid = JobSpec {
                nodes: 2,
                wall_ticks: 30,
                min_perf_milli: 1000,
                price_cap_micro: 10_000_000,
                deadline_tick: None,
            };
            let malformed = [
                JobSpec {
                    min_perf_milli: 0,
                    ..valid
                },
                JobSpec {
                    min_perf_milli: -1,
                    ..valid
                },
                JobSpec {
                    wall_ticks: 1 << 31,
                    price_cap_micro: 1 << 31,
                    ..valid
                },
            ];
            let mut answers: Vec<Response> = malformed
                .into_iter()
                .map(|spec| ask(&Request::Submit { spec }))
                .collect();
            // The market may still be empty at the first ticks.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match ask(&Request::Submit { spec: valid }) {
                    Response::Rejected { .. } if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    answer => break answers.push(answer),
                }
            }
            ask(&Request::Shutdown);
            answers
        });
        // Not the process-wide SIGTERM latch, which a test of its own sets.
        let never = || false;
        serve_requests(&mut session, &rx, 1000.0, never).expect("serves until the shutdown");
        let answers = client.join().expect("the client finishes");
        for answer in &answers[..3] {
            assert!(
                matches!(
                    answer,
                    Response::Rejected {
                        reason: RejectReason::Malformed { .. }
                    }
                ),
                "{answer:?}"
            );
        }
        assert!(
            matches!(answers[3], Response::Accepted { .. }),
            "{answers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `serve` refuses a pace that is not a positive, finite number before
    /// it reads or writes anything.
    #[test]
    fn serve_refuses_a_pace_that_is_not_positive_and_finite() {
        let dir = std::env::temp_dir().join("ecosched-daemon-never-created");
        for tps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let options = ServeOptions {
                data_dir: dir.clone(),
                listen: Endpoint::Tcp("127.0.0.1:0".into()),
                ticks_per_sec: tps,
                manifest: None,
                metrics: None,
            };
            match serve(&options) {
                Err(ServiceError::Config(detail)) => {
                    assert!(detail.contains("ticks per second"), "{detail}");
                }
                other => panic!("{tps}: {other:?}"),
            }
        }
        assert!(!dir.exists(), "nothing was written");
    }

    #[test]
    fn an_idle_connection_is_closed() {
        let bundle = build_service_obs(1);
        let bounds = Bounds {
            max_live: 4,
            idle: Duration::from_millis(100),
        };
        let (mut idle, _, _rx) = listener(bounds, &bundle.service);
        let mut rest = Vec::new();
        idle.read_to_end(&mut rest)
            .expect("closed, not left waiting");
        assert!(rest.is_empty(), "closed without an answer");
        let closed = "ecosched_service_idle_connections_closed_total";
        assert_eq!(counter(&bundle, closed), 1);
    }

    #[test]
    fn an_endless_request_line_gets_one_error_line_and_a_closed_connection() {
        let bundle = build_service_obs(1);
        let (tx, rx) = mpsc::channel();
        let mut written = Vec::new();
        handle_connection(
            BufReader::new(std::io::repeat(b'a')),
            &mut written,
            &tx,
            &bundle.service,
        );
        assert!(rx.try_recv().is_err(), "nothing reached the serve loop");
        let text = String::from_utf8(written).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        match decode_line::<Response>(&text) {
            Ok(Response::Error { detail }) => assert!(detail.contains("65536 bytes"), "{detail}"),
            other => panic!("unexpected response: {other:?}"),
        }
        let reg = bundle.recorder.registry().expect("recorder on");
        let oversized = reg
            .find_counter("ecosched_service_oversized_lines_total", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(oversized), 1);
    }

    #[test]
    fn a_line_at_the_cap_is_read_as_a_request() {
        // Exactly `MAX_REQUEST_LINE` bytes before the newline: parsed (and
        // refused as JSON), not cut off.
        let line = format!("{}\n", " ".repeat(MAX_REQUEST_LINE - 1) + "x");
        let (tx, _rx) = mpsc::channel();
        let mut written = Vec::new();
        handle_connection(
            BufReader::new(line.as_bytes()),
            &mut written,
            &tx,
            &ServiceObs::off(),
        );
        let text = String::from_utf8(written).unwrap();
        match decode_line::<Response>(&text) {
            Ok(Response::Error { detail }) => assert!(!detail.contains("longer than"), "{detail}"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}
